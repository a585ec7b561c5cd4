"""Witness construction: cloning, the closed-form uniform route, the
eigenvector route (with its zero-entry and singular steps), the feasible
|Q| interval, the closed-form pendant chain against the one-at-a-time
referee `attach_classical` of tests/conftest.py, graph realization, and a
corpus guard over every route."""

import hashlib
import itertools
import re
import sys

import numpy as np
import pytest

from qtext import (
    BorderlineSignature,
    GraphError,
    NotClassical,
    TextError,
    Untranslatable,
    SearchBudgetExhausted,
    SynthError,
    WellSplitShape,
    check_witness,
    clone_classical,
    decide_translatable,
    gen_text,
    GenSpec,
    graph_of_text,
    graphs_isomorphic,
    make_graph,
    parameterize,
    q_from_Q,
    realize_graph,
    recognize,
    shape_to_graph,
    subtext,
    synthesize_unitary,
    tablet_overlaps,
    translate,
    validate_text,
    witness_from_overlaps,
)
from qtext.texts import embed_text
import qtext.texts
from qtext import synth, translation
from tests.conftest import BadOverlapPattern, QTooLarge, attach_classical, uniform_gram


class TestCloneClassical:
    def test_default_target(self):
        t = validate_text(np.eye(3))
        w = clone_classical(t)
        assert w.Q == 0.0 and w.q == 0.0
        np.testing.assert_array_equal(w.output_gram, np.eye(3))
        w.unitary = synthesize_unitary(t, w)
        rep = check_witness(t, w)
        assert rep.passed and rep.r1 == 0.0 and rep.r3 is not None

    def test_explicit_target(self):
        t = validate_text(np.eye(3))
        target = validate_text(uniform_gram(3, 0.4))
        w = clone_classical(t, target_output=target)
        np.testing.assert_array_equal(w.output_gram, target.gram)
        w.unitary = synthesize_unitary(t, w)
        rep = check_witness(t, w)
        assert rep.passed and rep.r1 == 0.0
        assert rep.r3 is not None and rep.r3 <= 1e-10

    def test_rejects_quantum_text(self, uniform3):
        with pytest.raises(NotClassical):
            clone_classical(uniform3)

    def test_rejects_wrong_size_target(self):
        t = validate_text(np.eye(3))
        with pytest.raises(Exception):
            clone_classical(t, target_output=validate_text(np.eye(4)))


class TestCentralUniform:
    """translate with sign(Q) = -sign(z) on a uniform real text: the
    exceptional eigenvector of 1 ./ z is all-ones, and the output is
    uniform."""

    def test_positive_overlap_needs_negative_Q(self, uniform3):
        w = translate(uniform3, force_sign=-1)
        assert w.Q < 0
        rep = check_witness(uniform3, w)
        assert rep.passed and rep.r1 <= 1e-8 and rep.r3 is not None

    def test_negative_overlap_needs_positive_Q(self):
        t = validate_text(uniform_gram(4, -0.2))
        w = translate(t, force_sign=+1)
        assert w.Q > 0
        rep = check_witness(t, w)
        assert rep.passed and rep.r3 is not None

    def test_output_is_uniform(self, uniform3):
        w = translate(uniform3, force_sign=-1)
        y = w.output_gram
        off = y[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, off[0], atol=1e-12)

    @pytest.mark.parametrize("z", [-1e-3, 0.9999])
    def test_q_is_the_middle_of_the_feasible_interval(self, z):
        # the one admissible sign is -sign(z), so translate takes it
        # unforced, and Q is the geometric middle of the interval
        t = validate_text(uniform_gram(3, z))
        sign = -int(np.sign(z))
        iv = mixed_witness(t, sign).interval
        w = translate(t)
        assert w.Q == translate(t, force_sign=sign).Q == sign * np.sqrt(iv.lo * iv.hi)
        assert iv.lo_by == "cap"
        assert_gates(t, w)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("z", [0.99999, 0.999999])
    def test_near_one_translates(self, n, z):
        # the schedule this route used to walk left every output overlap
        # above MODULUS_CAP; the interval holds the window
        t = validate_text(uniform_gram(n, z))
        assert decide_translatable(t).reason == "OK_FULLY_QUANTUM"
        w = translate(t, force_sign=-1)
        assert w.Q < 0
        assert check_witness(t, w).passed
        assert_gates(t, translate(t))


class TestSearch:
    def test_finds_negative_sign(self, uniform3):
        out = mixed_witness(uniform3, -1)
        assert out.witness is not None
        assert out.witness.Q < 0
        out.witness.unitary = synthesize_unitary(uniform3, out.witness)
        rep = check_witness(uniform3, out.witness)
        assert rep.passed and rep.r3 is not None

    def test_inadmissible_sign_comes_back_empty(self, uniform3):
        # the signature admits only -1 here; for +1 every pair's modulus
        # quadratic has its roots at negative |Q|, so no Y is built
        out = mixed_witness(uniform3, +1)
        assert out.witness is None and out.interval.empty
        assert (out.interval.lo_by, out.interval.hi_by) == ("cap", "cap")
        assert out.refusal(+1).startswith("sign +1: no feasible Q, |Q| from inf (cap)")

    @pytest.mark.parametrize("gram", [
        gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram,
        uniform_gram(3, 0.5), uniform_gram(4, 1 - 1e-7)],
                             ids=["random3", "uniform3", "near_one4"])
    def test_q_is_the_geometric_middle(self, gram):
        # the middle clears every constraint with margin: moduli below the
        # cap, every B above its floor, the output Gram positive definite
        t = validate_text(gram)
        sign = min(decide_translatable(t).sign_constraint)
        out = mixed_witness(t, sign)
        iv, w = out.interval, out.witness
        assert 0 < iv.lo < iv.hi <= 1
        assert w.Q == sign * np.sqrt(iv.lo * iv.hi) and w.q == q_from_Q(w.Q)
        a = eigen_overlaps(t, sign)[0]
        assert max_modulus(t, w.Q, a) < translation.MODULUS_CAP
        assert np.min(1.0 + w.Q * np.abs(a) ** 2) > translation.B_FLOOR
        assert np.linalg.eigvalsh(w.output_gram)[0] > 0

    def test_deterministic(self, uniform3):
        a = mixed_witness(uniform3, -1)
        b = mixed_witness(uniform3, -1)
        np.testing.assert_array_equal(a.witness.tablet, b.witness.tablet)
        assert a.witness.Q == b.witness.Q

    def test_orthogonal_pairs_stay_out_of_the_core(self, path3):
        # the route is only ever given a core without orthogonal pairs;
        # the decomposition hangs the rest of the text on it as pendants
        parts = decide_translatable(path3).decomposition
        core = list(parts.core)
        assert parts.anchors and len(core) + len(parts.anchors) == 3
        assert not qtext.texts._orthogonal(path3.gram[np.ix_(core, core)]).any()
        assert_gates(path3, translate(path3))


class TestTranslate:
    def test_mixed_path(self, path3):
        w = translate(path3)
        assert w.Q > 0
        rep = check_witness(path3, w)
        assert rep.passed and rep.r3 <= 1e-8

    def test_star_text(self):
        # hub overlapping three mutually orthogonal leaves
        g = np.eye(4, dtype=complex)
        for leaf in (1, 2, 3):
            g[0, leaf] = g[leaf, 0] = 0.3
        t = validate_text(g)
        w = translate(t)
        assert w.Q > 0
        assert check_witness(t, w).passed

    def test_untranslatable_raises_with_decision(self):
        t = gen_text(GenSpec(mode="untranslatable4", seed=0))
        with pytest.raises(Untranslatable) as exc_info:
            translate(t)
        assert exc_info.value.decision.reason == "THEOREM_F_FAIL"

    def test_force_wrong_sign_on_mixed(self, path3):
        with pytest.raises(SearchBudgetExhausted):
            translate(path3, force_sign=-1)

    @pytest.mark.parametrize("gram, sign", [
        (gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram, -1),
        (uniform_gram(3, 0.5), +1),
        (uniform_gram(4, -0.2), -1),
    ])
    def test_force_inadmissible_sign_is_refused_up_front(self, gram, sign,
                                                         monkeypatch):
        # the classifier's sign constraint already says no: no construction
        # is attempted
        t = validate_text(gram)
        assert sign not in decide_translatable(t).sign_constraint
        calls = []
        real = synth._eigen_overlaps
        monkeypatch.setattr(synth, "_eigen_overlaps",
                            lambda *a: calls.append(a) or real(*a))
        with pytest.raises(SearchBudgetExhausted, match="not admissible"):
            translate(t, force_sign=sign)
        assert calls == []

    def test_force_sign_on_classical(self):
        t = validate_text(np.eye(3))
        for sign in (+1, -1):
            w = translate(t, force_sign=sign)
            assert np.sign(w.Q) == sign
            assert check_witness(t, w).passed

    @pytest.mark.parametrize("sign", [2, 0.5, 40])
    def test_force_sign_outside_the_signs_raises(self, sign, uniform3):
        # on a classical text such a value used to scale FORCED_SIGN_Q
        for t in (validate_text(np.eye(3)), uniform3):
            with pytest.raises(ValueError, match="force_sign must be None, -1, 0 or"):
                translate(t, force_sign=sign)

    def test_q0_on_classical_is_exact(self):
        t = validate_text(np.eye(4))
        w = translate(t, force_sign=0)
        assert w.Q == 0.0
        assert w.residuals["eq4"] == 0.0

    def test_sign_zero_is_the_default_clone(self):
        for g in classical_texts():
            t = validate_text(g)
            assert_same_witness(translate(t, force_sign=0), translate(t))

    def test_q0_on_quantum_raises(self, uniform3):
        with pytest.raises(Untranslatable) as exc_info:
            translate(uniform3, force_sign=0)
        assert exc_info.value.decision.reason == "Q0_NOT_CLASSICAL"

    def test_determinism(self, path3):
        w1 = translate(path3)
        w2 = translate(path3)
        assert w1.Q == w2.Q
        np.testing.assert_array_equal(w1.tablet, w2.tablet)
        np.testing.assert_array_equal(w1.unitary, w2.unitary)

    def test_isolated_plus_core(self):
        # triangle plus an isolated fourth state
        g = np.eye(4, dtype=complex)
        g[:3, :3] = uniform_gram(3, 0.5)
        t = validate_text(g)
        w = translate(t)
        rep = check_witness(t, w)
        assert rep.passed
        # the isolated state must stay orthogonal in the output
        np.testing.assert_allclose(np.abs(w.output_gram[3, :3]), 0, atol=1e-12)


    def test_mixed_chain_bound_keeps_q_below_one(self):
        # the chain overflowed Q = 1 from the first core witness of the
        # schedule; the interval, taken in the final Q, ends at |Q| <= 1
        t = validate_text(OVERFLOW_TEXT)
        d = decide_translatable(t)
        out = synth._mixed_witness(t, list(d.decomposition.core),
                                   d.decomposition.anchors, +1)
        assert out.interval.hi_by == "|Q| <= 1"
        w = translate(t)
        assert 0 < w.Q < 1 and w.Q == out.witness.Q
        assert_gates(t, w)


    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_near_one_uniform_translates(self, n):
        # the window |Q| in [0.909, 1] that the old schedule missed
        t = validate_text(uniform_gram(n, 1 - 1e-7))
        assert decide_translatable(t).reason == "OK_FULLY_QUANTUM"
        assert_gates(t, translate(t))

    def test_ill_conditioned_mixed_translates(self):
        # a triangle with z = -1e-5 and a state overlapping state 0 by
        # 1 - 1e-7: the chain's tablet, rebuilt by a solve on the full Gram,
        # used to need norm > 1; the closed form solves once
        t = validate_text(with_pendant(uniform_gram(3, -1e-5), 0, 1 - 1e-7))
        assert decide_translatable(t).reason == "OK_MIXED"
        assert_gates(t, translate(t))


class TestAttachClassical:
    """The referee attach_classical(w, t_new) extends a witness on t_new
    without its last state; the anchor is the one earlier state the last
    state overlaps.  The package has no such function: a grown text is
    translated by `translate`."""

    BASE = uniform_gram(2, -0.3)

    def _grown(self, row):
        g = np.eye(3, dtype=complex)
        g[:2, :2] = self.BASE
        g[2, :2] = row
        g[:2, 2] = np.conj(row)
        return validate_text(g)

    def _witness(self):
        return mixed_witness(validate_text(self.BASE), +1).witness

    def test_attach_grows_text(self):
        w = self._witness()
        t_plus = self._grown([0.4, 0.0])
        w_plus = attach_classical(w, t_plus)
        rep = check_witness(t_plus, w_plus)
        assert rep.passed
        assert w_plus.Q > w.Q  # attaching always raises Q

    def test_anchor_is_read_from_the_text(self):
        w = self._witness()
        t_plus = self._grown([0.0, 0.4])
        assert check_witness(t_plus, attach_classical(w, t_plus)).passed

    def test_bad_overlap_pattern(self):
        w = self._witness()
        with pytest.raises(BadOverlapPattern):
            attach_classical(w, self._grown([0.3, 0.4]))
        with pytest.raises(BadOverlapPattern):
            attach_classical(w, self._grown([0.0, 0.0]))

    def test_q_too_large(self):
        # a base witness near the top of its interval
        base = validate_text(self.BASE)
        a, iv = eigen_overlaps(base, +1)
        Q = 0.99 * iv.hi
        w = witness_from_overlaps(base, Q, a, forced_output(base, Q, a))
        with pytest.raises(QTooLarge):
            attach_classical(w, self._grown([0.95, 0.0]))

    def test_not_in_the_package(self):
        for module in (qtext, synth):
            for name in ("attach_classical", "QTooLarge", "BadOverlapPattern"):
                assert not hasattr(module, name), (module.__name__, name)


def connected_shapes(max_n):
    for n2 in range(2, max_n + 1):
        for ell in range(n2 + 1):
            for m in itertools.combinations_with_replacement(range(max_n, 0, -1), ell):
                if n2 + sum(m) <= max_n:
                    yield WellSplitShape(n2=n2, ell=ell, m=m)


def assert_same_witness(a, b):
    assert a.Q == b.Q and a.q == b.q
    for x, y in ((a.tablet, b.tablet), (a.output_gram, b.output_gram),
                 (a.unitary, b.unitary)):
        np.testing.assert_array_equal(x, y)
    assert a.residuals == b.residuals


class TestRealizeGraph:
    def test_single_edge(self):
        res = realize_graph(make_graph(2, [(0, 1)]))
        assert graph_of_text(res.text) == make_graph(2, [(0, 1)])
        assert 0 < res.witness.Q <= 1
        assert check_witness(res.text, res.witness).passed

    def test_triangle_with_pendants(self):
        g = shape_to_graph(WellSplitShape(n2=3, ell=2, m=(2, 1)))
        res = realize_graph(g)
        assert graph_of_text(res.text) == g
        assert check_witness(res.text, res.witness).passed

    def test_star(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        res = realize_graph(g)
        assert graph_of_text(res.text) == g
        assert 0 < res.witness.Q <= 1

    def test_edgeless(self):
        g = make_graph(3, [])
        res = realize_graph(g)
        np.testing.assert_array_equal(res.text.gram, np.eye(3))
        assert res.witness.Q == 1.0
        assert check_witness(res.text, res.witness).passed

    def test_disconnected_with_edges(self):
        g = make_graph(3, [(0, 1)])
        res = realize_graph(g)
        assert graph_of_text(res.text) == g
        assert check_witness(res.text, res.witness).passed

    def test_rejects_not_well_split(self):
        with pytest.raises(GraphError):
            realize_graph(make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))

    @pytest.mark.parametrize("leaves, zi, Q", [
        (11, 0.3, 0.0011459194703576062),   # z is not halved
        (12, 0.15, 0.0003737591833148491),  # the first candidate Gram is singular: zi halves
    ], ids=["z_kept", "zi_halves"])
    def test_star_overlap_scale(self, leaves, zi, Q):
        # the splitting puts hub 0 and leaf 1 in the clique; leaves 2.. are
        # pendants of the hub
        g = make_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        res = realize_graph(g)
        assert graph_of_text(res.text) == g
        assert res.text.gram[0, 1] == -0.1
        np.testing.assert_array_equal(res.text.gram[0, 2:], zi)
        assert res.witness.Q == pytest.approx(Q, rel=1e-6)
        assert_same_witness(res.witness, translate(res.text))
        rep = check_witness(res.text, res.witness)
        assert rep.passed and rep.unitarity <= 1e-10

    @pytest.mark.parametrize("g", [
        *(pytest.param(shape_to_graph(s), id=f"n2={s.n2},m={s.m}")
          for s in connected_shapes(7)),
        pytest.param(make_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3)]),
                     id="triangle_pendant_two_isolated"),
        pytest.param(make_graph(5, [(0, 1)]), id="edge_three_isolated"),
    ])
    def test_witness_is_translates(self, g):
        # realize_graph certifies its text through translate's one route
        res = realize_graph(g)
        assert_same_witness(res.witness, translate(res.text))

    def test_route_refusal_is_raised(self, monkeypatch):
        empty = synth.QInterval(0.5, 0.25, "cap", "PSD")
        monkeypatch.setattr(synth, "_mixed_witness",
                            lambda *args: synth.SearchOutcome(None, empty))
        with pytest.raises(SearchBudgetExhausted) as exc:
            realize_graph(make_graph(2, [(0, 1)]))
        assert str(exc.value) == ("sign +1: no feasible Q, |Q| from 0.5 (cap) "
                                  "to 0.25 (PSD)")

    def test_deterministic(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        a = realize_graph(g)
        b = realize_graph(g)
        np.testing.assert_array_equal(a.text.gram, b.text.gram)
        np.testing.assert_array_equal(a.witness.tablet, b.witness.tablet)

    def test_recognizes_once(self, count_calls):
        calls = count_calls(recognize)
        graphs = [make_graph(3, []), make_graph(3, [(0, 1)]),
                  make_graph(4, [(0, 1), (0, 2), (0, 3)]),
                  shape_to_graph(WellSplitShape(n2=3, ell=2, m=(2, 1))),
                  # a triangle with two pendants on one vertex, plus an
                  # isolated vertex
                  make_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])]
        for g in graphs:
            before = len(calls)
            realize_graph(g)
            assert len(calls) == before + 1 and calls[-1][0] is g

    def test_decision_agrees(self):
        # realized texts must classify as translatable
        from qtext import decide_translatable
        for shape in [WellSplitShape(n2=2, ell=0, m=()),
                      WellSplitShape(n2=2, ell=1, m=(2,)),
                      WellSplitShape(n2=4, ell=0, m=())]:
            g = shape_to_graph(shape)
            res = realize_graph(g)
            assert decide_translatable(res.text).translatable


def symmetric_core(a, z02):
    """z01 = z12 = a and a small z02: the exceptional eigenvector of 1 ./ z
    is (1, 0, -1) / sqrt(2), with an exact zero entry."""
    return np.array([[1.0, a, z02], [a, 1.0, a], [z02, a, 1.0]], dtype=complex)


def with_pendant(core, anchor, overlap):
    k = core.shape[0]
    z = np.eye(k + 1, dtype=complex)
    z[:k, :k] = core
    z[anchor, k] = z[k, anchor] = overlap
    return z


# a uniform 3-core with z = -0.35 and pendants of 0.625 on states 0 and 1;
# its chain overflows Q = 1 from the first core witness
OVERFLOW_TEXT = with_pendant(with_pendant(uniform_gram(3, -0.35), 0, 0.625), 1, 0.625)


def singular_core(a):
    """symmetric_core with z02 = a^2 / (2 - a^2), which makes det(1 ./ z) = 0."""
    return symmetric_core(a, a * a / (2.0 - a * a))


ZERO_ENTRY_TEXTS = {
    "core_z0.01": symmetric_core(0.4, 0.01),
    "core_z0.05": symmetric_core(0.4, 0.05),
    "pendant_z0.01": with_pendant(symmetric_core(0.4, 0.01), 1, 0.2),
    "pendant_z0.05": with_pendant(symmetric_core(0.4, 0.05), 1, 0.15),
}

SINGULAR_A = (0.2, 0.4, 0.6, -0.3)
SINGULAR_TEXTS = {f"core_a{a}": singular_core(a) for a in SINGULAR_A}
SINGULAR_TEXTS.update({f"pendant_a{a}_p{p}": with_pendant(singular_core(a), 1, p)
                       for a in SINGULAR_A for p in (0.2, 0.1)})


def eigen_overlaps(t, sign):
    """`synth._eigen_overlaps` with every state in the core."""
    return synth._eigen_overlaps(t, list(range(t.n)), sign)


def mixed_witness(t, sign):
    """`synth._mixed_witness` with every state in the core."""
    return synth._mixed_witness(t, list(range(t.n)), {}, sign)


def forced_output(t, Q, a):
    """The output Gram that overlaps `a` force at Q on a text without
    orthogonal pairs."""
    return translation.forced_outputs(t.gram, t.gram, np.array([Q]), a[None, :],
                                      1.0 + Q * np.abs(a[None, :]) ** 2)[0]


def assert_gates(t, w):
    rep = check_witness(t, w)
    assert rep.passed, rep
    assert rep.r1 <= 1e-8 and rep.r3 <= 1e-8 and rep.unitarity <= 1e-10, rep
    assert w.residuals == {"eq4": rep.r1, "eq2": rep.r3}


def halving_cone_step(t, sign):
    """The cone step as the loop it was, kept as a referee: s = 1e-2 max|u|,
    halved until w = u + s 1 has sign * w^H M^-1 w < 0 and no zero entry.
    Returns the number k of halvings and w, or (None, None)."""
    M = 1.0 / t.gram
    lam, vec = np.linalg.eigh((M + M.conj().T) / 2.0)
    u = vec[:, 0] if sign > 0 else vec[:, -1]
    assert np.min(np.abs(u)) < 1e-10 * np.max(np.abs(u))
    s = 1e-2 * np.max(np.abs(u))
    for k in range(41):
        w = u + s
        form = float(np.sum(np.abs(vec.conj().T @ w) ** 2 / lam))
        if sign * form < 0 and np.min(np.abs(w)) >= 1e-10 * np.max(np.abs(w)):
            return k, w
        s *= 0.5
    return None, None


class TestZeroEntryEigenvector:
    @pytest.mark.parametrize("z02", [0.01, 0.05])
    def test_eigenvector_has_zero_entry(self, z02):
        M = 1.0 / symmetric_core(0.4, z02)
        u = np.linalg.eigh(M)[1][:, 0]
        assert np.min(np.abs(u)) < 1e-10 * np.max(np.abs(u))

    @pytest.mark.parametrize("z02", [0.01, 0.05])
    def test_direction_lies_in_the_cone(self, z02):
        t = validate_text(symmetric_core(0.4, z02))
        a = eigen_overlaps(t, +1)[0]
        assert np.all(np.isfinite(a))
        w = 1.0 / a
        M = 1.0 / t.gram
        assert np.real(np.vdot(w, np.linalg.solve(M, w))) < 0

    @pytest.mark.parametrize("a", [0.2, 0.4, 0.6])
    def test_cone_step_takes_the_halving_loops_s(self, a):
        # z02 just below the singular core's: the least root of the
        # quadratic falls below 1e-2 max|u|, so s needs halvings
        ks = set()
        for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            t = validate_text(symmetric_core(a, a * a / (2.0 - a * a) * (1.0 - eps)))
            k, w = halving_cone_step(t, +1)
            ks.add(k)
            o = 1.0 / w
            o = o / np.sqrt(float(np.real(np.vdot(o, np.linalg.solve(t.gram, o)))))
            assert eigen_overlaps(t, +1)[0].tobytes() == o.tobytes()
            assert_gates(t, translate(t))
        assert None not in ks and max(ks) >= 3

    @pytest.mark.parametrize("label", sorted(ZERO_ENTRY_TEXTS))
    def test_translates_without_optimizer(self, label):
        t = validate_text(ZERO_ENTRY_TEXTS[label])
        w = translate(t)
        assert_gates(t, w)
        assert 0 < w.Q <= 1


class TestSingularReciprocal:
    @pytest.mark.parametrize("a", SINGULAR_A)
    def test_core_is_singular_with_zero_entry(self, a):
        lam, vec = np.linalg.eigh(1.0 / singular_core(a))
        assert np.min(np.abs(lam)) <= 1e-9 * np.max(np.abs(lam))
        u = vec[:, 0]
        assert np.min(np.abs(u)) < 1e-10 * np.max(np.abs(u))
        d = decide_translatable(validate_text(singular_core(a)))
        assert d.translatable and +1 in d.sign_constraint

    @pytest.mark.parametrize("a", SINGULAR_A)
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_compression_is_semidefinite(self, a, sign):
        # M is semidefinite of sign sign(Q) on the hyperplane orthogonal to
        # the stepped direction, and singular there (Cauchy interlacing)
        t = validate_text(singular_core(a))
        w = 1.0 / eigen_overlaps(t, sign)[0]
        M = 1.0 / t.gram
        basis = np.linalg.svd(w.conj()[None, :])[2][1:].conj().T
        mu = np.sort(sign * np.linalg.eigvalsh(basis.conj().T @ M @ basis))
        scale = np.max(np.abs(np.linalg.eigvalsh(M)))
        assert mu[0] >= -1e-12 * scale and abs(mu[0]) <= 1e-12 * scale
        assert mu[1] > 1e-3 * scale

    @pytest.mark.parametrize("label", sorted(SINGULAR_TEXTS))
    def test_translates_in_closed_form(self, label):
        # the bare cores and, through the mixed chain, the cores with a
        # pendant: decide_translatable accepts all of them
        t = validate_text(SINGULAR_TEXTS[label])
        assert decide_translatable(t).translatable
        w = translate(t)
        assert_gates(t, w)
        assert 0 < w.Q <= 1
        # the output Gram of the core is singular
        assert abs(np.linalg.eigvalsh(w.output_gram[:3, :3])[0]) <= 1e-12


class TestOneCheckPerWitness:
    """`synth._finish` checks each witness once, through `translation._check`,
    the body `check_witness` shares."""

    @pytest.mark.parametrize("n", [3, 8])
    def test_uniform_translate_checks_once(self, n, count_calls):
        calls = count_calls(translation._check)
        w = translate(validate_text(uniform_gram(n, 0.4)))
        assert len(calls) == 1 and calls[0][1] is w

    @pytest.mark.parametrize("gram", [
        gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram,
        gen_text(GenSpec(mode="random_efficient", n=4, seed=1)).gram,
        ZERO_ENTRY_TEXTS["core_z0.01"],
    ], ids=["random3_seed0", "random4_seed1", "core_z0.01"])
    def test_eigen_translate_checks_once(self, gram, count_calls):
        calls = count_calls(translation._check)
        w = translate(validate_text(gram))
        assert len(calls) == 1 and calls[0][1] is w

    @pytest.mark.parametrize("pendants", [[0], [0, 1]])
    def test_mixed_translate_checks_once(self, pendants, count_calls):
        # the attachment chain runs no check of its own
        g = gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram
        for anchor in pendants:
            g = with_pendant(g, anchor, 0.1)
        calls = count_calls(translation._check)
        w = translate(validate_text(g))
        assert len(calls) == 1 and calls[0][1] is w

    @pytest.mark.parametrize("kwargs", [{}, {"force_sign": 0}, {"force_sign": +1},
                                        {"force_sign": -1}])
    def test_clone_routes_carry_final_check(self, kwargs, count_calls):
        calls = count_calls(translation._check)
        t = validate_text(np.eye(3))
        w = translate(t, **kwargs)
        assert len(calls) == 1
        rep = check_witness(t, w)
        assert rep.passed and rep.r3 is not None
        assert w.residuals == {"eq4": rep.r1, "eq2": rep.r3}

    def test_builders_return_bare_witnesses(self):
        # the unitary and the residuals come only from synth._finish
        eye3 = validate_text(np.eye(3))
        base = validate_text(uniform_gram(2, -0.3))
        isolated = validate_text(with_pendant(base.gram, 0, 0.0))
        witnesses = [
            clone_classical(eye3),
            mixed_witness(validate_text(uniform_gram(4, 0.3)), -1).witness,
            mixed_witness(base, +1).witness,
            witness_from_overlaps(eye3, 0.5, np.zeros(3), np.eye(3)),
            synth._mixed_witness(isolated, [0, 1], {}, +1).witness,
        ]
        for w in witnesses:
            assert w.unitary is None and w.residuals == {}

    def test_edgeless_realization_is_checked(self, count_calls):
        calls = count_calls(translation._check)
        res = realize_graph(make_graph(3, []))
        assert len(calls) == 1
        rep = check_witness(res.text, res.witness)
        assert rep.passed
        assert res.witness.residuals == {"eq4": rep.r1, "eq2": rep.r3}

    def test_finish_refuses_a_failing_witness(self):
        # Q = 1 and overlaps sqrt(0.3) on z = -0.3 force y = 0 with
        # B = 1.3; moving y by 3e-8 makes r1 = 1.3 * 0.3 * 3e-8 = 1.17e-8,
        # above the gate, while the frame Grams differ by r1 / B = 9e-9, so
        # the unitary is still synthesized and the check is what fails
        t = validate_text(uniform_gram(2, -0.3))
        y = np.eye(2, dtype=complex)
        y[0, 1] = y[1, 0] = 3e-8
        w = witness_from_overlaps(t, 1.0, np.full(2, np.sqrt(0.3), dtype=complex), y)
        with pytest.raises(SearchBudgetExhausted, match="failed verification: r1=1.170e-08"):
            synth._finish(t, w)


RANDOM3 =gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram


class TestOneEmbeddingPerLookup:
    """embed_text runs once when a witness is assembled on its text, once
    for the frames the unitary and its check share, and once for the
    output Gram those frames embed; padding appends a zero row to the
    text's one embedding.  The mixed route assembles one witness on the
    whole text, without a chain of attachments."""

    @pytest.mark.parametrize("gram,expected", [
        (uniform_gram(8, 0.4), 3),
        (RANDOM3, 3),
        (with_pendant(with_pendant(RANDOM3, 0, 0.0), 0, 0.0), 3),
        (with_pendant(RANDOM3, 0, 0.1), 3),
    ], ids=["uniform8", "random3", "core_two_isolated", "core_pendant"])
    def test_translate(self, gram, expected, count_calls):
        calls = count_calls(qtext.texts.embed_text)
        w = translate(validate_text(gram))
        assert len(calls) == expected
        assert w.residuals["eq2"] is not None

    def test_realize_graph(self, count_calls):
        calls = count_calls(qtext.texts.embed_text)
        realize_graph(shape_to_graph(WellSplitShape(n2=3, ell=2, m=(2, 1))))
        assert len(calls) == 3

    def test_padded_embedding_matches_embed_text(self):
        t = validate_text(RANDOM3)
        ref = qtext.texts.embed_text(t, pad_extra_dim=True)
        emb = translation._embedding_for_tablet(t, ref.dim)
        assert (emb.dim, emb.padded) == (ref.dim, True)
        np.testing.assert_array_equal(emb.vectors, ref.vectors)
        with pytest.raises(qtext.DimensionMismatch):
            translation._embedding_for_tablet(t, ref.dim + 1)


class TestOneFrameBuildPerWitness:
    """The frames Omega and chi (x) psi of a finished witness are built once,
    and its unitary and its check share them."""

    @pytest.mark.parametrize("gram,kwargs", [
        (uniform_gram(8, 0.4), {}),
        (uniform_gram(24, -0.02), {}),
        (RANDOM3, {}),
        (with_pendant(with_pendant(RANDOM3, 0, 0.0), 0, 0.0), {}),
        (with_pendant(RANDOM3, 0, 0.1), {}),
        (np.eye(3), {"force_sign": 0}),
        (np.eye(3), {"force_sign": -1}),
    ], ids=["uniform8", "uniform24", "random3", "core_two_isolated", "core_pendant",
            "q0_clone", "classical_forced_sign"])
    def test_translate(self, gram, kwargs, count_calls):
        omegas = count_calls(translation.build_omega)
        targets = count_calls(translation._product_targets)
        w = translate(validate_text(gram), **kwargs)
        assert len(omegas) == len(targets) == 1
        assert w.residuals["eq2"] is not None

    def test_realize_graph(self, count_calls):
        omegas = count_calls(translation.build_omega)
        targets = count_calls(translation._product_targets)
        realize_graph(shape_to_graph(WellSplitShape(n2=3, ell=2, m=(2, 1))))
        assert len(omegas) == len(targets) == 1


class TestTextPropertiesPerTranslate:
    """decide_translatable tests efficiency without computing the text's
    flags.  _construct takes classicality from the decision, so only
    clone_classical's own input check computes them."""

    @pytest.mark.parametrize("gram", [
        RANDOM3,
        gen_text(GenSpec(mode="random_efficient", n=4, seed=1)).gram,
        ZERO_ENTRY_TEXTS["core_z0.01"],
    ], ids=["random3", "random4_seed1", "core_z0.01"])
    def test_eigen_route(self, gram, count_calls):
        calls = count_calls(qtext.texts.text_properties)
        translate(validate_text(gram))
        assert len(calls) <= 2

    @pytest.mark.parametrize("n", [3, 8])
    def test_central_route(self, n, count_calls):
        calls = count_calls(qtext.texts.text_properties)
        translate(validate_text(uniform_gram(n, 0.4)))
        assert len(calls) <= 2

    @pytest.mark.parametrize("kwargs", [{}, {"force_sign": +1}, {"force_sign": -1}])
    def test_classical_from_decision(self, kwargs, count_calls):
        calls = count_calls(qtext.texts.text_properties)
        t = validate_text(np.eye(3))
        w = translate(t, **kwargs)
        assert len(calls) <= 2
        assert check_witness(t, w).passed
        assert w.Q == (0.0 if not kwargs else kwargs["force_sign"] * synth.FORCED_SIGN_Q)


class TestOneUnitaryPerWitness:
    """synthesize_unitary runs once per translate and per realize_graph, in
    synth._finish, on the witness that is returned."""

    @pytest.fixture
    def unitary_calls(self, count_calls):
        calls = count_calls(translation.synthesize_unitary)
        # the counter replaces the function under both module names
        assert synth.synthesize_unitary is translation.synthesize_unitary
        return calls

    @pytest.mark.parametrize("gram,kwargs", [
        (uniform_gram(8, 0.4), {}),
        (RANDOM3, {}),
        (with_pendant(with_pendant(RANDOM3, 0, 0.0), 0, 0.0), {}),
        (with_pendant(RANDOM3, 0, 0.1), {}),
        (np.eye(3), {"force_sign": 0}),
        (np.eye(3), {"force_sign": -1}),
    ], ids=["uniform8", "random3", "core_two_isolated", "core_pendant",
            "q0_clone", "classical_forced_sign"])
    def test_translate(self, gram, kwargs, unitary_calls):
        w = translate(validate_text(gram), **kwargs)
        assert len(unitary_calls) == 1 and unitary_calls[0][1] is w

    @pytest.mark.parametrize("g", [
        make_graph(3, []),
        shape_to_graph(WellSplitShape(n2=3, ell=2, m=(2, 1))),
    ], ids=["edgeless", "with_edges"])
    def test_realize_graph(self, g, unitary_calls):
        res = realize_graph(g)
        assert len(unitary_calls) == 1 and unitary_calls[0][1] is res.witness


class TestPsdFloor:
    def test_route_refuses_output_below_validate_floor(self, monkeypatch):
        # a forced output with lam_min = -5e-9 is below validate_text's
        # floor (-3e-9 at n = 3): the route's one eigvalsh refuses it, and
        # translate names the interval instead of raising NotPSD
        t = validate_text(RANDOM3)
        z = -0.5 - 2.5e-9
        bad = np.full((3, 3), z, dtype=complex)
        np.fill_diagonal(bad, 1.0)
        lam_min = np.linalg.eigvalsh(bad)[0]
        assert -1e-8 < lam_min < -qtext.texts.psd_tol(3)
        with pytest.raises(TextError):
            validate_text(bad)
        calls = []

        def forced_bad(z_, zden, Q, A, B):
            calls.append(Q)
            return bad[None, :, :].copy()

        monkeypatch.setattr(synth, "forced_outputs", forced_bad)
        sign = max(decide_translatable(t).sign_constraint)
        out = mixed_witness(t, sign)
        assert out.witness is None and not out.interval.empty
        assert out.refusal(sign).startswith(f"sign {sign:+d}: output Gram not PSD")
        with pytest.raises(SearchBudgetExhausted, match=r"not PSD in the middle of \|Q\| from"):
            translate(t)
        assert len(calls) == 1 + len(decide_translatable(t).sign_constraint)


def from_vectors(gram):
    """V^H V of the text's own normalized embedding vectors: the Gram a
    holder of the states would write, Hermitian and unit-diagonal only to
    rounding."""
    V = qtext.texts.embed_text(validate_text(gram)).vectors
    V = V / np.linalg.norm(V, axis=0)
    return V.conj().T @ V


def closed_form_corpus():
    """Seeded texts over every construction route, each alone, with a
    pendant of overlap 0.1 on state 0, with pendants of 0.1 on states 0
    and 1, and with an isolated state: random real n = 2..5, random complex
    n = 3..4, uniform of both signs, the zero-entry and the singular cores.
    Each pendant text comes once more as `from_vectors` of itself."""
    base = []
    for n in range(2, 6):
        for seed in range(10):
            g = gen_text(GenSpec(mode="random_efficient", n=n, seed=seed)).gram
            base.append((f"real{n}_s{seed}", g.real.astype(complex)))
    for n in (3, 4):
        for seed in range(10):
            base.append((f"complex{n}_s{seed}",
                         gen_text(GenSpec(mode="random_efficient", n=n, seed=seed)).gram))
    for n in range(3, 9):
        base.append((f"uniform{n}+", uniform_gram(n, 0.4)))
        base.append((f"uniform{n}-", uniform_gram(n, -0.5 / (n - 1))))
    base += list(ZERO_ENTRY_TEXTS.items())[:2]
    base += [(f"singular_a{a}", singular_core(a)) for a in SINGULAR_A]
    out = []
    for label, g in base:
        out.append((label, g))
        one = with_pendant(g, 0, 0.1)
        two = with_pendant(one, 1, 0.1)
        out += [(label + "_pendant", one), (label + "_two_pendants", two),
                (label + "_pendant_vectors", from_vectors(one)),
                (label + "_two_pendants_vectors", from_vectors(two)),
                (label + "_isolated", with_pendant(g, 0, 0.0))]
    return out


class TestClosedFormCorpus:
    def test_every_admissible_sign_gets_a_witness(self):
        yes = forced = 0
        for label, g in closed_form_corpus():
            t = validate_text(g)
            d = decide_translatable(t)
            if not d.translatable:
                with pytest.raises(Untranslatable):
                    translate(t)
                continue
            yes += 1
            w = translate(t)
            assert_gates(t, w)
            assert int(np.sign(w.Q)) in d.sign_constraint, label
            for sign in sorted(d.sign_constraint):
                w = translate(t, force_sign=sign)
                assert_gates(t, w)
                assert int(np.sign(w.Q)) == sign, label
                forced += 1
        # 244 yes-texts and 272 admissible signs at the time of writing
        assert yes >= 240 and forced > yes


def referee_forced_output(t, Q, a):
    """The output Gram forced by overlaps `a` at Q, entry by entry, as the
    schedule walk built it; None if B degenerates."""
    B = 1.0 + Q * np.abs(a) ** 2
    if np.min(B) <= translation.B_FLOOR:
        return None
    Y = np.eye(t.n, dtype=complex)
    scale = np.sqrt(np.outer(B, B))
    for i in range(t.n):
        for j in range(i + 1, t.n):
            Y[i, j] = (1.0 + Q * a[i] * np.conj(a[j]) / t.gram[i, j]) / scale[i, j]
            Y[j, i] = np.conj(Y[i, j])
    return Y


def referee_accepts(Y):
    """The schedule walk's test of a forced output: squared excesses of
    lam_min below 0 and of the moduli over MODULUS_CAP sum to at most
    1e-16, and lam_min clears validate_text's floor."""
    lam_min = float(np.linalg.eigvalsh(Y)[0])
    iu = np.triu_indices(len(Y), 1)
    penalty = max(0.0, -lam_min) ** 2 + float(np.sum(
        np.maximum(0.0, np.abs(Y[iu]) - translation.MODULUS_CAP) ** 2))
    return penalty <= 1e-16 and lam_min >= -qtext.texts.psd_tol(len(Y))


def referee_mixed_witness(t, core, pendants):
    """The mixed chain as it was before the closed form, kept as a referee:
    the core's Q walks 41 halvings from 0.05, and on overflow the search
    restarts at half the failing core Q, up to 60 times.  Returns the order,
    the witness and the number of overflows."""

    def core_witness(t_core, start):
        a = eigen_overlaps(t_core, +1)[0]
        for k in range(41):
            Y = referee_forced_output(t_core, start * 0.5 ** k, a)
            if Y is not None and referee_accepts(Y):
                return witness_from_overlaps(t_core, start * 0.5 ** k, a, Y)
        return None

    t_core = subtext(t, core)
    start, overflows = 0.05, 0
    for _ in range(60):
        w_core = core_witness(t_core, start)
        if w_core is None:
            raise SearchBudgetExhausted("no positive-Q witness found for the complete core")
        order, w_cur = list(core), w_core
        try:
            for p in pendants:
                order.append(p)
                w_cur = attach_classical(w_cur, subtext(t, order))
            return order, w_cur, overflows
        except QTooLarge:
            start = w_core.Q / 2.0
            overflows += 1
    raise SearchBudgetExhausted("attachment chain kept overflowing Q = 1")


def with_pendants(core, corners, overlap):
    g = core
    for anchor in corners:
        g = with_pendant(g, anchor, overlap)
    return g


def mixed_chain_corpus():
    """The pendant texts of closed_form_corpus; uniform 3-cores with large
    pendants; and triangles with z from -1e-8 to -1e-4 and pendants near 1,
    the ill-conditioned grid whose chains overflow up to 11 times.  Texts
    that do not validate are left out."""
    out = [(label, g) for label, g in closed_form_corpus() if "pendant" in label]
    for z in (-0.2, -0.3, -0.35, -0.4, -0.45):
        for p in (0.5, 0.6, 0.625, 0.7, 0.8):
            for corners in ((0,), (0, 1), (0, 0), (0, 1, 2)):
                out.append((f"uniform3_z{z}_p{p}_{corners}",
                            with_pendants(uniform_gram(3, z), corners, p)))
    for z in (-1e-8, -1e-7, -1e-6, -1e-5, -1e-4):
        for p in (1 - 1e-7, 1 - 5e-8):
            for corners in ((0,), (0, 1), (0, 1, 2)):
                out.append((f"triangle_z{z}_p{p}_{corners}",
                            with_pendants(uniform_gram(3, z), corners, p)))
    texts = []
    for label, g in out:
        try:
            texts.append((label, validate_text(g)))
        except TextError:
            pass
    return texts


class TestPendantRows:
    """`synth._pendant_rows` writes the pendants' rows and columns only."""

    @pytest.mark.parametrize("anchors", [{}, {3: 0, 4: 0}], ids=["no_pendants", "pendants"])
    def test_other_entries_keep_their_bits(self, anchors):
        # a real output Gram with negative zero imaginary parts, as the
        # forced output of a real text can carry them
        Y0 = np.eye(5, dtype=complex)
        Y0[:3, :3] = uniform_gram(3, -0.2)
        Y0.imag[:] = -0.0
        B = np.array([1.5, 1.2, 1.1, 1.0, 1.0])
        Y = synth._pendant_rows(Y0, anchors, B)
        keep = np.setdiff1d(np.arange(5), list(anchors))
        assert Y[np.ix_(keep, keep)].tobytes() == Y0[np.ix_(keep, keep)].tobytes()
        for p in anchors:
            assert Y[p, p] == 1.0
            np.testing.assert_array_equal(Y[p, :3], Y0[0, :3] / np.sqrt(1.5))
        if anchors:
            assert Y[3, 4] == Y[4, 3] == pytest.approx(1.0 / 1.5, rel=1e-15)


class TestClosedFormChain:
    """The mixed route is the chain of attach_classical steps in closed
    form: each step scales the tablet overlaps by alpha and Q by
    alpha^-2, so one solve on the whole text gives the chain's overlaps,
    and the chain's end is the |Q| <= 1 end of their interval."""

    def test_translates_whatever_the_restart_referee_translates(self):
        mixed = judged = 0
        for label, t in mixed_chain_corpus():
            d = decide_translatable(t)
            if d.reason != "OK_MIXED":
                continue
            mixed += 1
            try:
                referee_mixed_witness(t, list(d.decomposition.core),
                                      list(d.decomposition.anchors))
                judged += 1
            except SynthError:
                pass
            # every OK_MIXED text of the corpus translates, with the gates
            # the referee's chains used to fail on 9 ill-conditioned triangles
            w = translate(t)
            rep = check_witness(t, w)
            assert rep.passed and rep.r1 <= 1e-8 and rep.r3 <= 1e-8, label
            assert rep.unitarity <= 1e-10, label
        # 196 OK_MIXED texts, all judged, at the time of writing
        assert mixed >= 190 and judged >= 190

    def test_matches_the_attach_chain(self):
        compared = 0
        for label, g in closed_form_corpus():
            t = validate_text(g)
            d = decide_translatable(t)
            if d.reason != "OK_MIXED":
                continue
            core, anchors = list(d.decomposition.core), d.decomposition.anchors
            out = synth._mixed_witness(t, core, anchors, +1)
            t_core = subtext(t, core)
            a = eigen_overlaps(t_core, +1)[0]
            # the chain's Q is the core's times F = (a, 0)^H z^-1 (a, 0)
            o = np.zeros(t.n, dtype=complex)
            o[core] = a
            Q_core = out.witness.Q / np.real(np.vdot(o, np.linalg.solve(t.gram, o)))
            w = witness_from_overlaps(t_core, Q_core, a, forced_output(t_core, Q_core, a))
            order = list(core)
            for p in anchors:
                order.append(p)
                w = attach_classical(w, subtext(t, order))
            assert w.Q == pytest.approx(out.witness.Q, rel=1e-12), label
            np.testing.assert_allclose(
                w.output_gram, out.witness.output_gram[np.ix_(order, order)],
                rtol=0, atol=1e-12, err_msg=label)
            mine = translation.restrict_witness(t, out.witness, order)
            np.testing.assert_allclose(
                tablet_overlaps(embed_text(subtext(t, order), pad_extra_dim=True), w.tablet),
                tablet_overlaps(embed_text(subtext(t, order), pad_extra_dim=True), mine.tablet),
                rtol=0, atol=1e-10, err_msg=label)
            compared += 1
        assert compared >= 100

    @pytest.mark.parametrize("gram", [OVERFLOW_TEXT, with_pendant(RANDOM3, 0, 0.1),
                                      with_pendant(uniform_gram(3, -1e-4), 0, 1 - 1e-7)],
                             ids=["overflow_once", "random3_pendant", "overflow_10_times"])
    def test_overflowing_chains_translate(self, gram):
        t = validate_text(gram)
        w = translate(t)
        assert_gates(t, w)
        assert w.Q > 0

    def test_chain_tablets_do_not_depend_on_core_q(self):
        t = validate_text(with_pendants(uniform_gram(3, -0.35), (0, 1), 0.3))
        t_core = subtext(t, [0, 1, 2])
        a, iv = eigen_overlaps(t_core, +1)
        Q = np.sqrt(iv.lo * iv.hi)
        cores = [witness_from_overlaps(t_core, q, a, forced_output(t_core, q, a))
                 for q in (Q, Q / 2)]
        chains = []
        for w in cores:
            for order in ([0, 1, 2, 3], [0, 1, 2, 3, 4]):
                w = attach_classical(w, subtext(t, order))
            chains.append(w)
        assert chains[0].tablet.tobytes() == chains[1].tablet.tobytes()
        assert chains[0].Q == 2.0 * chains[1].Q


def bisect_end(feasible, inside, outside, steps=200):
    """The end, between a feasible |Q| and an infeasible one, of the |Q|
    where `feasible` holds, by bisection on a log scale."""
    for _ in range(steps):
        mid = np.sqrt(inside * outside)
        inside, outside = (mid, outside) if feasible(mid) else (inside, mid)
    return inside


def max_modulus(t, Q, a):
    Y = forced_output(t, Q, a)
    return np.max(np.abs(Y[np.triu_indices(t.n, 1)]))


def interval_corpus():
    """Seeded directions of every kind: random efficient n = 3..5, uniform
    n = 4..64 with z of both signs, planted texts (a uniform core plus 2 %
    seeded Hermitian noise), the zero-entry cores (cone step) and the
    singular cores (singular step)."""
    for n in (3, 4, 5):
        for seed in range(30):
            yield f"random{n}_s{seed}", gen_text(
                GenSpec(mode="random_efficient", n=n, seed=seed)).gram
    for n in (4, 8, 16, 32, 64):
        yield f"uniform{n}+", uniform_gram(n, 0.4)
        yield f"uniform{n}-", uniform_gram(n, -0.5 / (n - 1))
    rng = np.random.default_rng(7)
    for n in (6, 12, 24):
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        noise = (noise + noise.conj().T) / 2.0
        np.fill_diagonal(noise, 0.0)
        yield f"planted{n}", uniform_gram(n, -0.5 / (n - 1)) + 0.02 * noise / np.abs(noise).max()
    yield from ((k, g) for k, g in ZERO_ENTRY_TEXTS.items() if k.startswith("core"))
    yield from ((k, g) for k, g in SINGULAR_TEXTS.items() if k.startswith("core"))


class TestFeasibleInterval:
    """The ends of `synth._feasible_q` against bisection on the moduli and on
    eigvalsh of the forced output Gram."""

    def test_ends_match_bisection(self, monkeypatch):
        q_psd = []
        real = synth._feasible_q
        monkeypatch.setattr(synth, "_feasible_q",
                            lambda t, a, sign, q: q_psd.append(q) or real(t, a, sign, q))
        labels = []
        for label, g in interval_corpus():
            t = validate_text(g)
            for sign in sorted(decide_translatable(t).sign_constraint):
                a, iv = eigen_overlaps(t, sign)
                mid = np.sqrt(iv.lo * iv.hi)

                def capped(x):
                    return max_modulus(t, sign * x, a) <= translation.MODULUS_CAP

                assert iv.lo_by == "cap", label
                assert bisect_end(capped, mid, 1e-3 * iv.lo) == pytest.approx(iv.lo, rel=1e-8)
                if iv.hi_by == "cap":
                    assert bisect_end(capped, mid, 1.0) == pytest.approx(iv.hi, rel=1e-8)
                # lam_min(Y) leaves zero at |q_psd|, also where that is above 1,
                # as far as B stays positive
                end = sign * q_psd[-1]
                assert end > 0, label
                if iv.hi_by == "PSD":
                    assert iv.hi == end
                top = 4 * end if sign > 0 else min(4 * end, (1 - 1e-6) / np.max(np.abs(a) ** 2))
                if top > end * (1 + 1e-6):
                    def psd(x):
                        return np.linalg.eigvalsh(forced_output(t, sign * x, a))[0] >= -1e-12

                    assert bisect_end(psd, min(mid, end / 2), top) == pytest.approx(end, rel=1e-8)
                labels.append(label)
        for kind in ("random", "uniform", "planted", "core_z", "core_a"):
            assert any(label.startswith(kind) for label in labels), kind

    @pytest.mark.parametrize("gram, sign, ends", [
        (uniform_gram(2, 1 - 1e-7), -1, ("cap", "cap")),
        (uniform_gram(8, 0.4), -1, ("cap", "PSD")),
        (uniform_gram(4, -0.2), +1, ("cap", "|Q| <= 1")),
    ], ids=["cap", "PSD", "unit"])
    def test_binding_names(self, gram, sign, ends):
        t = validate_text(gram)
        a, iv = eigen_overlaps(t, sign)
        assert (iv.lo_by, iv.hi_by) == ends and 0 < iv.lo < iv.hi <= 1
        assert_gates(t, translate(t, force_sign=sign))

    def test_b_floor_binds(self):
        # a direction no unit tablet has: |a_0|^2 = 2.25 and y_01 -> 0 as
        # B_0 -> 0, so the modulus sets no upper end
        t = validate_text(uniform_gram(2, 0.5))
        iv = synth._feasible_q(t, np.array([1.5, 0.75], dtype=complex), -1, -10.0)
        assert (iv.lo_by, iv.hi_by) == ("cap", "B")
        assert iv.hi == (1.0 - translation.B_FLOOR) / 2.25

    @pytest.mark.parametrize("floor", [0.05, 0.5])
    def test_pendant_binds(self, floor, monkeypatch):
        # a raised floor on B_anchor - 1: the pendant's output overlap with
        # its anchor, 1 / sqrt(B_anchor), sets the lower end or empties
        # the interval
        monkeypatch.setattr(synth, "PENDANT_FLOOR", floor)
        t = validate_text(with_pendant(uniform_gram(3, -0.2), 0, 0.3))
        d = decide_translatable(t)
        out = synth._mixed_witness(t, [0, 1, 2], d.decomposition.anchors, +1)
        assert (out.interval.lo_by, out.interval.hi_by) == ("pendant", "|Q| <= 1")
        if out.witness is None:
            with pytest.raises(SearchBudgetExhausted, match=r"\(pendant\) to .* \(\|Q\| <= 1\)"):
                translate(t)
        else:
            w = translate(t)
            assert_gates(t, w)
            assert abs(w.output_gram[3, 0]) < (1.0 + floor) ** -0.5


def near_duplicate(seed):
    """A text whose states 0 and 1 nearly coincide: n = 3..6 complex
    Gaussian vectors, the second replaced by the first plus 10^-4.5 to
    10^-2 of itself."""
    rng = np.random.default_rng([seed, 2718])
    n = int(rng.integers(3, 7))
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eps = 10 ** rng.uniform(-4.5, -2)
    v[:, 1] = v[:, 0] + eps * v[:, 1]
    v /= np.linalg.norm(v, axis=0)
    g = v.conj().T @ v
    g = (g + g.conj().T) / 2.0
    np.fill_diagonal(g, 1.0)
    return g


class TestNearDuplicates:
    def test_translates_or_names_the_binding_constraints(self):
        name = r"\((cap|B|PSD|\|Q\| <= 1)\)"
        translated = refused = 0
        for seed in range(400):
            try:
                t = validate_text(near_duplicate(seed))
                d = decide_translatable(t)
            except (TextError, BorderlineSignature):
                continue
            if d.reason != "OK_FULLY_QUANTUM":
                continue
            try:
                w = translate(t)
            except SearchBudgetExhausted as e:
                assert re.search(f"from .* {name} to .* {name}", str(e)), (seed, str(e))
                refused += 1
                continue
            assert_gates(t, w)
            translated += 1
        # 24 translated (22 with the old schedule) and 31 with an empty set
        # under MODULUS_CAP at the time of writing
        assert translated >= 24 and translated + refused == 55


class TestOneEigvalshPerSign:
    """translate confirms its candidate output Gram with one eigvalsh per
    sign of Q it tries; validation, embedding and the check run their own."""

    @pytest.mark.parametrize("gram", [
        uniform_gram(8, 0.4), uniform_gram(2, 0.3), uniform_gram(4, 1 - 1e-7), RANDOM3,
        ZERO_ENTRY_TEXTS["core_z0.01"], singular_core(0.4),
        with_pendant(with_pendant(RANDOM3, 0, 0.0), 0, 0.0), OVERFLOW_TEXT,
        with_pendant(singular_core(0.4), 1, 0.2),
    ], ids=["uniform8", "uniform2", "near_one4", "random3", "zero_entry", "singular",
            "core_two_isolated", "overflow", "singular_pendant"])
    def test_translate(self, gram, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh

        def counting(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "qtext.synth":
                calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        t = validate_text(gram)
        signs = decide_translatable(t).sign_constraint
        assert_gates(t, translate(t))
        assert 1 <= len(calls) <= len(signs)


def classical_texts():
    """Identity texts and texts with every off-diagonal entry below 1e-9,
    n = 1..5."""
    rng = np.random.default_rng(2024)
    for n in range(1, 6):
        yield np.eye(n, dtype=complex)
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = np.eye(n, dtype=complex) + 1e-10 * (noise + noise.conj().T) / 4.0
        np.fill_diagonal(g, 1.0)
        yield g


class TestUnchangedWitnessBytes:
    """Numbers that pass through no LAPACK call, pinned by digests: Q and
    the output Gram of clone_classical and of the classical forced-sign
    witness, recorded before Q was taken from its feasible interval, and
    the text Gram of realize_graph on every connected well-split shape with
    at most 6 vertices.  Realize's witness is translate's, checked by
    TestRealizeGraph::test_witness_is_translates."""

    CLASSICAL_DIGEST = "54fa70e9468258365f7489acb30293ed0dae6dc724ca2abc11765ba8241253ab"
    REALIZED_DIGEST = "2ffd129af0413fb0ae0b7dac8fb0c17dac4ec3d9e9379efe6403aef8fca638d3"

    def test_classical_digest(self):
        h = hashlib.sha256()
        count = 0
        for g in classical_texts():
            t = validate_text(g)
            for w in (clone_classical(t), translate(t, force_sign=+1),
                      translate(t, force_sign=-1)):
                h.update(w.Q.hex().encode() + np.ascontiguousarray(w.output_gram).tobytes())
                count += 1
        assert count == 30
        assert h.hexdigest() == self.CLASSICAL_DIGEST

    def test_realized_digest(self):
        h = hashlib.sha256()
        count = 0
        for shape in connected_shapes(6):
            h.update(np.ascontiguousarray(realize_graph(shape_to_graph(shape)).text.gram).tobytes())
            count += 1
        assert count == 23
        assert h.hexdigest() == self.REALIZED_DIGEST

"""Witness construction: cloning, the closed-form uniform route, the
eigenvector route (with its zero-entry and singular steps), pendant
attachment, graph realization, and a corpus guard over every route."""

import numpy as np
import pytest

from qtext import (
    BadOverlapPattern,
    GraphError,
    Infeasible,
    NotClassical,
    NotUniformRealEfficient,
    QTooLarge,
    TextError,
    Untranslatable,
    SearchBudgetExhausted,
    SynthError,
    WellSplitShape,
    attach_classical,
    central_translate_uniform,
    check_witness,
    clone_classical,
    decide_translatable,
    gen_text,
    GenSpec,
    graph_of_text,
    graphs_isomorphic,
    make_graph,
    parameterize,
    realize_graph,
    recognize,
    search_translation,
    shape_to_graph,
    subtext,
    synthesize_unitary,
    translate,
    validate_text,
    witness_from_overlaps,
)
import qtext.texts
from qtext import synth, translation
from tests.conftest import uniform_gram


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
    def test_positive_overlap_needs_negative_Q(self, uniform3):
        w = central_translate_uniform(uniform3)
        assert w.Q < 0
        w.unitary = synthesize_unitary(uniform3, w)
        rep = check_witness(uniform3, w)
        assert rep.passed and rep.r1 <= 1e-8 and rep.r3 is not None

    def test_negative_overlap_needs_positive_Q(self):
        t = validate_text(uniform_gram(4, -0.2))
        w = central_translate_uniform(t)
        assert w.Q > 0
        w.unitary = synthesize_unitary(t, w)
        rep = check_witness(t, w)
        assert rep.passed and rep.r3 is not None

    def test_output_is_uniform(self, uniform3):
        w = central_translate_uniform(uniform3)
        y = w.output_gram
        off = y[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, off[0], atol=1e-12)

    def test_rejects_nonuniform(self, path3):
        with pytest.raises(NotUniformRealEfficient):
            central_translate_uniform(path3)

    def test_rejects_singular_uniform(self):
        # z = -1/2 at n = 3 sits on the PSD boundary
        t = validate_text(uniform_gram(3, -0.5))
        with pytest.raises(NotUniformRealEfficient):
            central_translate_uniform(t)

    def test_rejects_complex_uniform(self):
        g = np.eye(3, dtype=complex)
        z = 0.3j
        for i in range(3):
            for j in range(3):
                if i < j:
                    g[i, j] = z
                    g[j, i] = np.conj(z)
        with pytest.raises(NotUniformRealEfficient):
            central_translate_uniform(validate_text(g))

    @pytest.mark.parametrize("z, Q", [(-1e-3, 0.0125), (0.9999, -0.2)])
    def test_schedule_steps_past_infeasible_q(self, z, Q):
        # Q = 0.05 * 2^-k on the k-th shrink step and 0.05 * 2^j on the
        # j-th growth step after 41 shrinks: z = -1e-3 settles on its 3rd
        # value, z = 0.9999 on its 43rd
        t = validate_text(uniform_gram(3, z))
        w = translate(t)
        assert w.Q == central_translate_uniform(t).Q == Q
        assert_gates(t, w)

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    @pytest.mark.parametrize("z", [0.99999, 0.999999])
    def test_near_one_falls_back_to_the_eigenvector_route(self, n, z):
        # every Q of the schedule leaves the output overlap above
        # MODULUS_CAP, so translate takes the eigenvector route instead
        t = validate_text(uniform_gram(n, z))
        assert decide_translatable(t).reason == "OK_FULLY_QUANTUM"
        with pytest.raises(SynthError, match="no feasible Q"):
            central_translate_uniform(t)
        assert_gates(t, translate(t))


class TestSearch:
    def test_finds_negative_sign(self, uniform3):
        out = search_translation(uniform3, sign=-1)
        assert out.witness is not None
        assert out.witness.Q < 0
        out.witness.unitary = synthesize_unitary(uniform3, out.witness)
        rep = check_witness(uniform3, out.witness)
        assert rep.passed and rep.r3 is not None

    def test_inadmissible_sign_comes_back_empty(self, uniform3):
        # the signature admits only -1 here; the +1 route must fail after
        # one pass over the Q schedule
        out = search_translation(uniform3, sign=+1)
        assert out.witness is None
        assert out.best_penalty > 0
        assert out.evaluations == len(list(synth._delta_schedule()))

    def test_schedule_values(self):
        # 41 halvings from Q_START, then the doublings that stay below 1
        schedule = list(synth._delta_schedule())
        assert schedule == ([synth.Q_START * 0.5 ** k for k in range(41)]
                            + [0.1, 0.2, 0.4, 0.8])
        assert max(schedule) <= 1.0

    def test_deterministic(self, uniform3):
        a = search_translation(uniform3, sign=-1)
        b = search_translation(uniform3, sign=-1)
        np.testing.assert_array_equal(a.witness.tablet, b.witness.tablet)
        assert a.witness.Q == b.witness.Q

    def test_rejects_orthogonal_pairs(self, path3):
        with pytest.raises(Exception):
            search_translation(path3, sign=+1)


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

    def test_q0_on_classical_is_exact(self):
        t = validate_text(np.eye(4))
        w = translate(t, q0=True)
        assert w.Q == 0.0
        assert w.residuals["eq4"] == 0.0

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_q0_excludes_forced_sign(self, sign):
        with pytest.raises(ValueError, match="exclude"):
            translate(validate_text(np.eye(3)), force_sign=sign, q0=True)

    def test_q0_on_quantum_raises(self, uniform3):
        with pytest.raises(Untranslatable) as exc_info:
            translate(uniform3, q0=True)
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


    def test_mixed_chain_retries_after_q_overflow(self, monkeypatch):
        # the chain overflows Q = 1 from the first core witness and lands at
        # Q ~ 0.636 from a core witness of half the start
        t = validate_text(OVERFLOW_TEXT)
        overflows = []
        attach = synth.attach_classical

        def spy(*args):
            try:
                return attach(*args)
            except QTooLarge:
                overflows.append(args[1].n)
                raise

        monkeypatch.setattr(synth, "attach_classical", spy)
        w = translate(t)
        assert len(overflows) >= 1
        assert w.Q == pytest.approx(0.636, abs=1e-3)
        rep = check_witness(t, w)
        assert rep.passed and rep.r3 <= 1e-8 and rep.unitarity <= 1e-10


    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.xfail(strict=True, raises=SearchBudgetExhausted,
                       reason="no Q of the schedule keeps |y| under MODULUS_CAP")
    def test_near_one_uniform_translates(self, n):
        # accepted, but every point of both routes misses the window
        t = validate_text(uniform_gram(n, 1 - 1e-7))
        assert decide_translatable(t).reason == "OK_FULLY_QUANTUM"
        assert_gates(t, translate(t))

    @pytest.mark.xfail(strict=True, raises=Infeasible,
                       reason="_scatter_witness rebuilds the chain tablet with norm > 1")
    def test_ill_conditioned_mixed_translates(self):
        # a triangle with z = -1e-5 and a state overlapping state 0 by
        # 1 - 1e-7: the chain succeeds, the solve on the full Gram does not
        t = validate_text(with_pendant(uniform_gram(3, -1e-5), 0, 1 - 1e-7))
        assert decide_translatable(t).reason == "OK_MIXED"
        assert_gates(t, translate(t))


class TestAttachClassical:
    """attach_classical(w, t_new) extends a witness on t_new without its last
    state; the anchor is the one earlier state the last state overlaps."""

    BASE = uniform_gram(2, -0.3)

    def _grown(self, row):
        g = np.eye(3, dtype=complex)
        g[:2, :2] = self.BASE
        g[2, :2] = row
        g[:2, 2] = np.conj(row)
        return validate_text(g)

    def _witness(self):
        return search_translation(validate_text(self.BASE), sign=+1).witness

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
        with pytest.raises(QTooLarge):
            attach_classical(self._witness(), self._grown([0.95, 0.0]))


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

    @pytest.mark.parametrize("leaves, z, zi", [
        (11, -0.05, 0.3),   # the tablet norm exceeds 0.9 once: z halves
        (12, -0.1, 0.15),   # the first candidate Gram is singular: zi halves
    ])
    def test_star_halves_overlap_scale(self, leaves, z, zi):
        # the splitting puts hub 0 and leaf 1 in the clique; leaves 2.. are
        # pendants of the hub
        g = make_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
        res = realize_graph(g)
        assert graph_of_text(res.text) == g
        assert res.text.gram[0, 1] == z
        np.testing.assert_array_equal(res.text.gram[0, 2:], zi)
        assert res.witness.Q == 1.0
        rep = check_witness(res.text, res.witness)
        assert rep.passed and rep.unitarity <= 1e-10

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


def assert_gates(t, w):
    rep = check_witness(t, w)
    assert rep.passed, rep
    assert rep.r1 <= 1e-8 and rep.r3 <= 1e-8 and rep.unitarity <= 1e-10, rep
    assert w.residuals == {"eq4": rep.r1, "eq2": rep.r3}


class TestZeroEntryEigenvector:
    @pytest.mark.parametrize("z02", [0.01, 0.05])
    def test_eigenvector_has_zero_entry(self, z02):
        M = 1.0 / symmetric_core(0.4, z02)
        u = np.linalg.eigh(M)[1][:, 0]
        assert np.min(np.abs(u)) < 1e-10 * np.max(np.abs(u))

    @pytest.mark.parametrize("z02", [0.01, 0.05])
    def test_direction_lies_in_the_cone(self, z02):
        t = validate_text(symmetric_core(0.4, z02))
        a = synth._eigen_overlaps(t, +1)
        assert a is not None and np.all(np.isfinite(a))
        w = 1.0 / a
        M = 1.0 / t.gram
        assert np.real(np.vdot(w, np.linalg.solve(M, w))) < 0

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
        w = 1.0 / synth._eigen_overlaps(t, sign)
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
    @pytest.mark.parametrize("n", [3, 8])
    def test_uniform_translate_checks_once(self, n, count_calls):
        calls = count_calls(check_witness)
        w = translate(validate_text(uniform_gram(n, 0.4)))
        assert len(calls) == 1 and calls[0][1] is w

    @pytest.mark.parametrize("gram", [
        gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram,
        gen_text(GenSpec(mode="random_efficient", n=4, seed=1)).gram,
        ZERO_ENTRY_TEXTS["core_z0.01"],
    ], ids=["random3_seed0", "random4_seed1", "core_z0.01"])
    def test_eigen_translate_checks_once(self, gram, count_calls):
        calls = count_calls(check_witness)
        w = translate(validate_text(gram))
        assert len(calls) == 1 and calls[0][1] is w

    @pytest.mark.parametrize("pendants", [[0], [0, 1]])
    def test_mixed_translate_checks_once(self, pendants, count_calls):
        # the attachment chain runs no check of its own
        g = gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram
        for anchor in pendants:
            g = with_pendant(g, anchor, 0.1)
        calls = count_calls(check_witness)
        w = translate(validate_text(g))
        assert len(calls) == 1 and calls[0][1] is w

    @pytest.mark.parametrize("kwargs", [{}, {"q0": True}, {"force_sign": +1},
                                        {"force_sign": -1}])
    def test_clone_routes_carry_final_check(self, kwargs, count_calls):
        calls = count_calls(check_witness)
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
        core = search_translation(base, sign=+1).witness
        isolated = validate_text(with_pendant(base.gram, 0, 0.0))
        witnesses = [
            clone_classical(eye3),
            central_translate_uniform(validate_text(uniform_gram(4, 0.3))),
            core,
            attach_classical(core, validate_text(with_pendant(base.gram, 0, 0.4))),
            witness_from_overlaps(eye3, 0.5, np.zeros(3), np.eye(3)),
            synth._scatter_witness(isolated, [0, 1], core),
        ]
        for w in witnesses:
            assert w.unitary is None and w.residuals == {}

    def test_edgeless_realization_is_checked(self, count_calls):
        calls = count_calls(check_witness)
        res = realize_graph(make_graph(3, []))
        assert len(calls) == 1
        rep = check_witness(res.text, res.witness)
        assert rep.passed
        assert res.witness.residuals == {"eq4": rep.r1, "eq2": rep.r3}


RANDOM3 = gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram


class TestOneEmbeddingPerLookup:
    """embed_text runs once each time a witness meets its text (assembly,
    unitary, check, attachment, scattering) and once per output Gram the
    unitary or the check embeds; padding appends a zero row to that one
    embedding."""

    @pytest.mark.parametrize("gram,expected", [
        (uniform_gram(8, 0.4), 5),
        (RANDOM3, 5),
        # the isolated states add the scatter's lookup and its assembly
        (with_pendant(with_pendant(RANDOM3, 0, 0.0), 0, 0.0), 7),
        # core, attachment, scatter, unitary, final check
        (with_pendant(RANDOM3, 0, 0.1), 9),
    ], ids=["uniform8", "random3", "core_two_isolated", "core_pendant"])
    def test_translate(self, gram, expected, count_calls):
        calls = count_calls(qtext.texts.embed_text)
        w = translate(validate_text(gram))
        assert len(calls) == expected
        assert w.residuals["eq2"] is not None

    def test_realize_graph(self, count_calls):
        calls = count_calls(qtext.texts.embed_text)
        realize_graph(shape_to_graph(WellSplitShape(n2=3, ell=2, m=(2, 1))))
        assert len(calls) == 5

    def test_padded_embedding_matches_embed_text(self):
        t = validate_text(RANDOM3)
        ref = qtext.texts.embed_text(t, pad_extra_dim=True)
        emb = translation._embedding_for_tablet(t, ref.dim)
        assert (emb.dim, emb.padded) == (ref.dim, True)
        np.testing.assert_array_equal(emb.vectors, ref.vectors)
        with pytest.raises(qtext.DimensionMismatch):
            translation._embedding_for_tablet(t, ref.dim + 1)


class TestTextPropertiesPerTranslate:
    """decide_translatable computes the text's flags once.  _construct takes
    classicality from the decision and the core's uniform and real flags
    from uniform_real_flags, so only the route's own input check
    (search_translation, central_translate_uniform or clone_classical)
    computes them again."""

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
        assert w.Q == (0.0 if not kwargs else kwargs["force_sign"] * synth.Q_START)


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
        (np.eye(3), {"q0": True}),
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
    def test_route_skips_output_below_validate_floor(self, monkeypatch):
        # a forced output with lam_min = -5e-9 passes the penalty (2.5e-17
        # <= 1e-16) but not validate_text (floor -3e-9 at n = 3); the route
        # must move on to the next Q instead of raising NotPSD
        t = validate_text(RANDOM3)
        z = -0.5 - 2.5e-9
        bad = np.full((3, 3), z, dtype=complex)
        np.fill_diagonal(bad, 1.0)
        lam_min = np.linalg.eigvalsh(bad)[0]
        assert -1e-8 < lam_min < -qtext.texts.psd_tol(3)
        assert synth._penalty(bad, lam_min) <= synth.PENALTY_SUCCESS
        with pytest.raises(TextError):
            validate_text(bad)
        real = synth._forced_output
        calls = []

        def first_step_bad(t_, Q, a):
            calls.append(Q)
            return bad if len(calls) == 1 else real(t_, Q, a)

        monkeypatch.setattr(synth, "_forced_output", first_step_bad)
        w = translate(t)
        assert len(calls) == 2 and abs(w.Q) == synth.Q_START / 2
        assert w.Q == calls[1]
        assert_gates(t, w)


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


def referee_mixed_witness(t, core, pendants):
    """The mixed chain as it was before the single walk, kept as a referee:
    on overflow the core search restarts at half the failing core Q, up to
    60 times, each over 41 halvings of its start.  Returns the order, the
    witness and the number of overflows."""

    def core_witness(t_core, start):
        a = synth._eigen_overlaps(t_core, +1)
        if a is None:
            return None
        a = synth._span_normalize(t_core, a)
        for k in range(41):
            Y = synth._forced_output(t_core, start * 0.5 ** k, a)
            if Y is None:
                continue
            lam_min = float(np.linalg.eigvalsh(Y)[0])
            if (synth._penalty(Y, lam_min) <= synth.PENALTY_SUCCESS
                    and lam_min >= -qtext.texts.psd_tol(t_core.n)):
                return witness_from_overlaps(t_core, start * 0.5 ** k, a, Y)
        return None

    t_core = subtext(t, core)
    start, overflows = synth.Q_START, 0
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


class TestSingleCoreWalk:
    """The mixed chain walks the core's Q schedule once.  Its tablets depend
    on the core's overlap direction alone, so each core witness scales the
    chain's Q by the same factor, and the passing points of one walk are the
    points the restarts of the referee visit."""

    def test_matches_the_restart_referee(self):
        mixed = overflowing = 0
        for label, t in mixed_chain_corpus():
            d = decide_translatable(t)
            if d.reason != "OK_MIXED":
                continue
            mixed += 1
            core, pendants = list(d.decomposition.core), list(d.decomposition.anchors)
            try:
                order, ref, overflows = referee_mixed_witness(t, core, pendants)
            except SynthError as e:
                with pytest.raises(type(e)):
                    synth._mixed_witness(t, core, pendants)
                continue
            got_order, w = synth._mixed_witness(t, core, pendants)
            assert got_order == order, label
            assert w.Q.hex() == ref.Q.hex(), label
            assert w.tablet.tobytes() == ref.tablet.tobytes(), label
            assert w.output_gram.tobytes() == ref.output_gram.tobytes(), label
            overflowing += overflows > 0
        # 196 OK_MIXED texts, 3 uniform-core and 8 triangle ones overflowing,
        # at the time of writing
        assert mixed >= 190 and overflowing >= 5

    @pytest.mark.parametrize("gram", [OVERFLOW_TEXT, with_pendant(RANDOM3, 0, 0.1),
                                      with_pendant(uniform_gram(3, -1e-4), 0, 1 - 1e-7)],
                             ids=["overflow_once", "random3_pendant", "overflow_10_times"])
    def test_one_walk_per_translate(self, gram, count_calls):
        calls = count_calls(synth._fully_quantum_overlaps)
        w = translate(validate_text(gram))
        assert len(calls) == 1 and w.Q > 0

    def test_chain_tablets_do_not_depend_on_core_q(self):
        t = validate_text(with_pendants(uniform_gram(3, -0.35), (0, 1), 0.3))
        walk = synth._fully_quantum_overlaps(subtext(t, [0, 1, 2]), +1)
        cores = [next(walk).witness, next(walk).witness]
        assert cores[0].Q == 2.0 * cores[1].Q
        chains = []
        for w in cores:
            for order in ([0, 1, 2, 3], [0, 1, 2, 3, 4]):
                w = attach_classical(w, subtext(t, order))
            chains.append(w)
        assert chains[0].tablet.tobytes() == chains[1].tablet.tobytes()
        assert chains[0].Q == 2.0 * chains[1].Q

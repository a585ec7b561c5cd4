"""Witness construction: cloning, the closed-form uniform route, search,
pendant attachment, and graph realization."""

import numpy as np
import pytest

from qtext import (
    BadOverlapPattern,
    GraphError,
    NotClassical,
    NotUniformRealEfficient,
    QTooLarge,
    TextError,
    Untranslatable,
    SearchBudgetExhausted,
    WellSplitShape,
    attach_classical,
    central_translate_uniform,
    check_witness,
    clone_classical,
    gen_text,
    GenSpec,
    graph_of_text,
    graphs_isomorphic,
    make_graph,
    parameterize,
    realize_graph,
    search_translation,
    shape_to_graph,
    subtext,
    translate,
    validate_text,
)
from qtext import synth, translation
from tests.conftest import uniform_gram


class TestCloneClassical:
    def test_default_target(self):
        t = validate_text(np.eye(3))
        w = clone_classical(t)
        assert w.Q == 0.0 and w.q == 0.0
        assert w.residuals["eq4"] == 0.0
        np.testing.assert_array_equal(w.output_gram, np.eye(3))
        assert check_witness(t, w).passed

    def test_explicit_target(self):
        t = validate_text(np.eye(3))
        target = validate_text(uniform_gram(3, 0.4))
        w = clone_classical(t, target_output=target)
        np.testing.assert_array_equal(w.output_gram, target.gram)
        rep = check_witness(t, w)
        assert rep.passed and rep.r1 == 0.0 and rep.r3 <= 1e-10

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
        rep = check_witness(uniform3, w)
        assert rep.passed and rep.r1 <= 1e-8

    def test_negative_overlap_needs_positive_Q(self):
        t = validate_text(uniform_gram(4, -0.2))
        w = central_translate_uniform(t)
        assert w.Q > 0
        assert check_witness(t, w).passed

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


class TestSearch:
    def test_finds_negative_sign(self, uniform3):
        out = search_translation(uniform3, sign=-1)
        assert out.witness is not None
        assert out.witness.Q < 0
        assert check_witness(uniform3, out.witness).passed

    def test_inadmissible_sign_comes_back_empty(self, uniform3):
        # the signature admits only -1 here; a +1 search must fail
        out = search_translation(uniform3, sign=+1, budget=4000)
        assert out.witness is None
        assert out.best_penalty > 0
        assert out.evaluations <= 4000

    def test_deterministic(self, uniform3):
        a = search_translation(uniform3, sign=-1, seed=5)
        b = search_translation(uniform3, sign=-1, seed=5)
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

    def test_q0_on_quantum_raises(self, uniform3):
        with pytest.raises(Untranslatable) as exc_info:
            translate(uniform3, q0=True)
        assert exc_info.value.decision.reason == "Q0_NOT_CLASSICAL"

    def test_determinism(self, path3):
        w1 = translate(path3, seed=3)
        w2 = translate(path3, seed=3)
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


class TestAttachClassical:
    def _base(self):
        base = validate_text(uniform_gram(2, -0.3))
        out = search_translation(base, sign=+1)
        return base, out.witness

    def test_attach_grows_text(self):
        base, w = self._base()
        w_plus = attach_classical(w, base, np.array([0.4, 0.0]), anchor=0)
        g = np.eye(3, dtype=complex)
        g[:2, :2] = base.gram
        g[2, 0] = 0.4
        g[0, 2] = 0.4
        t_plus = validate_text(g)
        rep = check_witness(t_plus, w_plus)
        assert rep.passed
        assert w_plus.Q > w.Q  # attaching always raises Q

    def test_bad_overlap_pattern(self):
        base, w = self._base()
        with pytest.raises(BadOverlapPattern):
            attach_classical(w, base, np.array([0.3, 0.4]), anchor=0)
        with pytest.raises(BadOverlapPattern):
            attach_classical(w, base, np.array([0.0, 0.0]), anchor=0)

    def test_q_too_large(self):
        base, w = self._base()
        with pytest.raises(QTooLarge):
            attach_classical(w, base, np.array([0.95, 0.0]), anchor=0)

    def test_infeasible_overlap_is_invalid_text(self):
        # overlaps that break positive semidefiniteness never form a text
        base, w = self._base()
        with pytest.raises(TextError):
            attach_classical(w, base, np.array([0.99, 0.0]), anchor=0)


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

    def test_deterministic(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        a = realize_graph(g)
        b = realize_graph(g)
        np.testing.assert_array_equal(a.text.gram, b.text.gram)
        np.testing.assert_array_equal(a.witness.tablet, b.witness.tablet)

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


ZERO_ENTRY_TEXTS = {
    "core_z0.01": symmetric_core(0.4, 0.01),
    "core_z0.05": symmetric_core(0.4, 0.05),
    "pendant_z0.01": with_pendant(symmetric_core(0.4, 0.01), 1, 0.2),
    "pendant_z0.05": with_pendant(symmetric_core(0.4, 0.05), 1, 0.15),
}


class TestZeroEntryEigenvector:
    @pytest.fixture
    def no_optimizer(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Nelder-Mead reached")
        monkeypatch.setattr("scipy.optimize.minimize", refuse)

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
    def test_translates_without_optimizer(self, label, no_optimizer):
        t = validate_text(ZERO_ENTRY_TEXTS[label])
        w = translate(t)
        rep = check_witness(t, w)
        assert rep.passed
        assert 0 < w.Q <= 1
        assert rep.r1 <= 1e-8 and rep.r3 <= 1e-8 and rep.unitarity <= 1e-10
        assert w.residuals == {"eq4": rep.r1, "eq2": rep.r3}


class TestOneCheckPerWitness:
    @pytest.fixture
    def check_calls(self, monkeypatch):
        calls = []

        def counting(t, w):
            calls.append(w)
            return check_witness(t, w)
        monkeypatch.setattr(synth, "check_witness", counting)
        monkeypatch.setattr(translation, "check_witness", counting)
        return calls

    @pytest.mark.parametrize("n", [3, 8])
    def test_uniform_translate_checks_once(self, n, check_calls):
        w = translate(validate_text(uniform_gram(n, 0.4)))
        assert len(check_calls) == 1 and check_calls[0] is w

    @pytest.mark.parametrize("kwargs", [{}, {"q0": True}, {"force_sign": +1},
                                        {"force_sign": -1}])
    def test_clone_routes_carry_final_check(self, kwargs, check_calls):
        t = validate_text(np.eye(3))
        w = translate(t, **kwargs)
        assert len(check_calls) == 1
        rep = check_witness(t, w)
        assert rep.passed and rep.r3 is not None
        assert w.residuals == {"eq4": rep.r1, "eq2": rep.r3}

    def test_builders_leave_eq2_unset(self):
        t = validate_text(np.eye(3))
        w = clone_classical(t)
        assert w.unitary is not None and w.residuals["eq2"] is None
        w = central_translate_uniform(validate_text(uniform_gram(4, 0.3)))
        assert w.unitary is not None and w.residuals["eq2"] is None

    def test_edgeless_realization_is_checked(self, check_calls):
        res = realize_graph(make_graph(3, []))
        assert len(check_calls) == 1
        rep = check_witness(res.text, res.witness)
        assert rep.passed
        assert res.witness.residuals == {"eq4": rep.r1, "eq2": rep.r3}

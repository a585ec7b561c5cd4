"""Witness construction: cloning, the closed-form uniform route, the
eigenvector route (with its zero-entry and singular steps), pendant
attachment, graph realization, and a corpus guard over every route."""

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
        assert out.evaluations == len(list(synth._delta_schedule(synth.Q_START, 1.0)))

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
            attach_classical(core, base, np.array([0.4, 0.0]), anchor=0),
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
        # core, attachment, chain check, scatter, unitary, final check
        (with_pendant(RANDOM3, 0, 0.1), 10),
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


def closed_form_corpus():
    """Seeded texts over every construction route, each alone, with a
    pendant of overlap 0.1 on state 0 and with an isolated state: random
    real n = 2..5, random complex n = 3..4, uniform of both signs, the
    zero-entry and the singular cores."""
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
        out.append((label + "_pendant", with_pendant(g, 0, 0.1)))
        out.append((label + "_isolated", with_pendant(g, 0, 0.0)))
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
        # 142 yes-texts and 170 admissible signs at the time of writing
        assert yes >= 140 and forced > yes

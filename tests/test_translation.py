"""Pair construction, the overlap identity, witness checking, and unitary
synthesis."""

import tempfile
import warnings

import numpy as np
import pytest

from qtext import (
    DegenerateB,
    DimensionMismatch,
    DuplicateStates,
    GenSpec,
    GramMismatch,
    QOutOfRange,
    SearchBudgetExhausted,
    TranslationError,
    TranslationWitness,
    WellSplitShape,
    Q_from_q,
    build_omega,
    check_witness,
    embed_text,
    gen_text,
    oracle_feasible,
    overlap_residual,
    q_from_Q,
    realize_graph,
    restrict_witness,
    shape_to_graph,
    subtext,
    synthesize_unitary,
    tablet_overlaps,
    text_properties,
    translate,
    validate_text,
    witness_from_overlaps,
)
from qtext import io as qio
from qtext import synth, translation
from tests.conftest import off_frame_stretch, uniform_gram
from tests.test_synth import with_pendant


class TestQParameter:
    def test_round_trip(self):
        for Q in np.linspace(-1.0, 1.0, 21):
            assert Q_from_q(q_from_Q(Q)) == pytest.approx(Q, abs=1e-14)

    def test_zero_maps_to_zero(self):
        assert q_from_Q(0.0) == 0.0

    def test_endpoints(self):
        assert q_from_Q(1.0) == pytest.approx(1.0)
        assert q_from_Q(-1.0) == pytest.approx(-1.0)

    def test_out_of_range(self):
        with pytest.raises(QOutOfRange):
            q_from_Q(1.0 + 1e-9)
        with pytest.raises(QOutOfRange):
            q_from_Q(-1.5)

    def test_complex_q_reduces_to_real_formula(self):
        q = 0.3 + 0.4j
        assert Q_from_q(q) == pytest.approx(2 * 0.3 / (1 + 0.25))

    def test_unit_disc_keeps_the_direct_formula(self):
        rng = np.random.default_rng(0)
        for q in rng.uniform(-1, 1, (2000, 2)) @ np.array([1.0, 1j]):
            if abs(q) <= 1.0:
                assert Q_from_q(q) == 2.0 * q.real / (1.0 + abs(q) ** 2)

    @pytest.mark.parametrize("q, Q", [(1e200, 2e-200), (1.4e154, 2 / 1.4e154),
                                      (-3e300j, 0.0), (1e308 + 1e308j, 0.0),
                                      (2.0 - 1j, 4.0 / 6.0)])
    def test_large_q_does_not_overflow(self, q, Q):
        # |q|^2 overflows from |q| ~ 1.34e154 on
        assert Q_from_q(q) == pytest.approx(Q, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("q", [complex("inf"), complex("-infj"), complex("nan")])
    def test_non_finite_q_gives_nan(self, q):
        assert np.isnan(Q_from_q(q))


class TestBuildOmega:
    def test_overlap_identity(self):
        # <Omega_i|Omega_j> must equal (z_ij + Q a_i conj(a_j)) / sqrt(B_i B_j)
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(2, 5))
            v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            v /= np.linalg.norm(v, axis=1)[:, None]
            g = v @ v.conj().T
            np.fill_diagonal(g, 1.0)
            t = validate_text(g)
            emb = embed_text(t, pad_extra_dim=True)
            tab = rng.normal(size=emb.dim) + 1j * rng.normal(size=emb.dim)
            tab /= np.linalg.norm(tab)
            q = complex(rng.normal(), rng.normal()) * 0.5
            omegas = build_omega(emb, tab, q)
            Q = Q_from_q(q)
            a = tablet_overlaps(emb, tab)
            B = 1.0 + Q * np.abs(a) ** 2
            omega_gram = omegas.conj().T @ omegas
            expect = (t.gram + Q * np.outer(a, a.conj())) / np.sqrt(np.outer(B, B))
            np.testing.assert_allclose(omega_gram, expect, atol=1e-12)

    def test_pairs_are_unit_vectors(self, uniform3):
        emb = embed_text(uniform3, pad_extra_dim=True)
        tab = np.zeros(emb.dim, dtype=complex)
        tab[-1] = 1.0
        omegas = build_omega(emb, tab, 0.2 + 0.1j)
        assert omegas.shape == (emb.dim ** 2, 3)
        norms = np.linalg.norm(omegas, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_degenerate_normalizer(self, uniform3):
        # q = -1 with the tablet equal to a state of the text kills Omega_i
        emb = embed_text(uniform3)
        tab = emb.vectors[:, 0].copy()
        with pytest.raises(DegenerateB):
            build_omega(emb, tab, -1.0)

    def test_columns_equal_kron_reference(self):
        # the broadcast columns are bit-identical to the per-column kron form
        rng = np.random.default_rng(23)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(min(n, 2), n + 1))
            v = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)) * (trial % 2)
            v /= np.linalg.norm(v, axis=0)
            g = v.conj().T @ v
            np.fill_diagonal(g, 1.0)
            t = validate_text(g)
            emb = embed_text(t, pad_extra_dim=bool(trial % 3))
            tab = rng.normal(size=emb.dim) + 1j * rng.normal(size=emb.dim)
            tab /= np.linalg.norm(tab)
            q = complex(rng.normal(), rng.normal()) * 0.5
            a = tablet_overlaps(emb, tab)
            A = 1.0 + abs(q) ** 2 + 2.0 * q.real * np.abs(a) ** 2
            ref = np.column_stack([
                (np.kron(emb.vectors[:, i], tab) + q * np.kron(tab, emb.vectors[:, i]))
                / np.sqrt(A[i]) for i in range(n)])
            np.testing.assert_array_equal(build_omega(emb, tab, q), ref)
            out = translation._product_targets(t, emb)
            chi = np.zeros_like(emb.vectors)
            own = embed_text(t)
            chi[:own.dim] = own.vectors
            ref = np.column_stack([np.kron(chi[:, i], emb.vectors[:, i]) for i in range(n)])
            np.testing.assert_array_equal(out, ref)


def _forced_output(t, Q, a):
    return translation.forced_outputs(t.gram, t.gram, np.array([Q]), a[None, :],
                                      1.0 + Q * np.abs(a[None, :]) ** 2)[0]


class TestOutputGram:
    """The one forced-output kernel, translation._forced_entries: through
    forced_outputs on texts without orthogonal pairs (where every output
    entry is forced), and the callers it serves."""

    def test_route_and_both_oracle_stages_call_it(self, count_calls):
        calls = count_calls(translation._forced_entries)
        translate(validate_text(uniform_gram(4, 0.4)))
        assert [np.ndim(c[-1]) for c in calls] == [2]
        calls.clear()
        # the probe alone: stage 1 on the triangle, stage 2 on the full Y
        t = validate_text(with_pendant(uniform_gram(3, 0.4), 0, 0.1))
        oracle_feasible(t, samples=1)
        assert [np.ndim(c[-1]) for c in calls] == [1, 2]

    def test_two_state_zero_overlap(self):
        # z = -0.1, tablet overlap 0.4 on both states, Q = -z/t^2 = 0.625
        # forces the output overlap to exactly zero
        t = validate_text(np.array([[1.0, -0.1], [-0.1, 1.0]], dtype=complex))
        y = _forced_output(t, 0.625, np.array([0.4, 0.4], dtype=complex))
        assert y[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_forced_entry_formula(self, uniform3):
        Q = -0.4
        y = _forced_output(uniform3, Q, np.array([0.3, 0.3, 0.3], complex))
        B = 1 + Q * 0.09
        want = (0.5 + Q * 0.09) / (B * 0.5)
        assert y[0, 1] == pytest.approx(want)

    def test_q_zero_forces_unit_overlaps(self, uniform3):
        # at Q = 0 every non-orthogonal pair is forced to y = 1 (duplicate
        # output states), so only all-orthogonal texts survive Q = 0
        y = _forced_output(uniform3, 0.0, np.zeros(3, dtype=complex))
        np.testing.assert_allclose(y[np.triu_indices(3, 1)], 1.0, atol=1e-14)
        with pytest.raises(DuplicateStates):
            validate_text(y)


class TestCheckWitness:
    def test_accepts_translation(self, uniform3):
        w = translate(uniform3)
        rep = check_witness(uniform3, w)
        assert rep.passed
        assert rep.r1 <= 1e-8 and rep.r3 <= 1e-8

    def test_rejects_tampered_Q(self, uniform3):
        w = translate(uniform3)
        bad = TranslationWitness(Q=w.Q + 1e-3, q=w.q, tablet=w.tablet,
                                 output_gram=w.output_gram)
        with pytest.raises(TranslationError):
            check_witness(uniform3, bad)

    def test_rejects_tampered_tablet(self, uniform3):
        w = translate(uniform3)
        tab = np.array(w.tablet)
        tab[0] += 0.05
        bad = TranslationWitness(Q=w.Q, q=w.q, tablet=tab,
                                 output_gram=w.output_gram)
        with pytest.raises(TranslationError):
            check_witness(uniform3, bad)

    def test_flags_wrong_output_gram(self, uniform3):
        w = translate(uniform3)
        y = np.array(w.output_gram)
        y[0, 1] += 0.01
        y[1, 0] += 0.01
        bad = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet, output_gram=y)
        rep = check_witness(uniform3, bad)
        assert not rep.passed
        assert rep.r1 > 1e-8

    def test_unitarity_violation_detected(self, uniform3):
        w = translate(uniform3)
        u = np.array(w.unitary)
        u[0, 0] += 0.01
        bad = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet,
                                 output_gram=w.output_gram, unitary=u)
        rep = check_witness(uniform3, bad)
        assert not rep.passed
        assert rep.unitarity > 1e-10
        # a unitary defect alone fails the check: the stretched unitary maps
        # every frame state exactly, so r1 and r3 stay at rounding level
        rep = check_witness(uniform3, off_frame_stretch(uniform3, w))
        assert rep.r1 <= 1e-8 and rep.r2_ok and rep.r3 <= 1e-8
        assert rep.unitarity == pytest.approx(1.25)
        assert not rep.passed

    @pytest.mark.parametrize("field", ["Q", "q", "tablet", "output_gram"])
    def test_nan_fails_the_hard_gates(self, uniform3, field):
        # NaN compares false with every tolerance: each gate must fail on
        # it, before build_omega or the residuals see it
        w = translate(uniform3)
        tablet = np.array(w.tablet)
        tablet[0] = np.nan
        y = np.array(w.output_gram)
        y[0, 1] = y[1, 0] = np.nan
        bad = TranslationWitness(
            Q=np.nan if field == "Q" else w.Q,
            q=complex(np.inf, 0.0) if field == "q" else w.q,
            tablet=tablet if field == "tablet" else w.tablet,
            output_gram=y if field == "output_gram" else w.output_gram,
            unitary=w.unitary)
        with pytest.raises(TranslationError):
            check_witness(uniform3, bad)

    def test_degenerate_b(self):
        # a tablet equal to psi_0 with Q = -1 gives B_0 = 1 - |a_0|^2 = 0
        t = validate_text(uniform_gram(2, 0.5))
        emb = embed_text(t)
        tablet = emb.vectors[:, 0] / np.linalg.norm(emb.vectors[:, 0])
        bad = TranslationWitness(Q=-1.0, q=q_from_Q(-1.0), tablet=tablet,
                                 output_gram=np.eye(2, dtype=complex))
        with pytest.raises(DegenerateB, match="min B_i"):
            check_witness(t, bad)

    def test_output_needs_more_dimensions(self):
        # three states of rank 2 (1 + 2z = 0) and an unpadded tablet: the
        # orthonormal output text needs a third dimension
        t = validate_text(uniform_gram(3, -0.5))
        assert embed_text(t).dim == 2
        bad = TranslationWitness(Q=0.0, q=0j, tablet=np.array([1.0, 0.0], dtype=complex),
                                 output_gram=np.eye(3, dtype=complex),
                                 unitary=np.eye(4, dtype=complex))
        with pytest.raises(DimensionMismatch, match="output text needs dimension 3"):
            check_witness(t, bad)

    def test_witness_without_unitary_passes(self, uniform3):
        w = translate(uniform3)
        bare = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet,
                                  output_gram=w.output_gram)
        rep = check_witness(uniform3, bare)
        assert rep.passed and rep.r3 is None


class TestQClassInvariance:
    def test_same_Q_different_q(self, uniform3):
        # any q on the circle 2 Re(q)/(1+|q|^2) = Q carries the same witness;
        # the unitary has to be resynthesized for the new representative
        w = translate(uniform3)
        Q = w.Q
        q_alt = np.exp(1j * np.arccos(np.clip(Q, -1, 1)))  # |q| = 1
        assert Q_from_q(q_alt) == pytest.approx(Q, abs=1e-12)
        alt = TranslationWitness(Q=Q, q=complex(q_alt), tablet=w.tablet,
                                 output_gram=w.output_gram)
        alt.unitary = synthesize_unitary(uniform3, alt)
        rep_alt = check_witness(uniform3, alt)
        rep = check_witness(uniform3, w)
        assert rep_alt.passed
        assert rep_alt.r1 == rep.r1
        assert rep_alt.r3 <= 1e-8


class TestSynthesizeUnitary:
    def test_maps_frames(self, uniform3):
        w = translate(uniform3)
        u = w.unitary
        d = u.shape[0]
        np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)

    def test_gram_mismatch(self, uniform3):
        w = translate(uniform3)
        # small enough to keep the output Gram PSD, which near |y| = 1 has
        # its smallest eigenvalue near 1e-3
        y = np.array(w.output_gram)
        y[0, 1] -= 1e-6
        y[1, 0] = np.conj(y[0, 1])
        bad = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet, output_gram=y)
        with pytest.raises(GramMismatch):
            synthesize_unitary(uniform3, bad)


def _hand_witness(t, tablet, Q, output):
    """Witness with a given tablet, Q and output Gram, and its unitary."""
    w = TranslationWitness(Q=Q, q=q_from_Q(Q), tablet=np.asarray(tablet, dtype=complex),
                           output_gram=np.asarray(output, dtype=complex))
    w.unitary = synthesize_unitary(t, w)
    return w


def unpadded_uniform(n, z, Q):
    """Uniform text with an unpadded tablet, the normalized sum of its
    states, and the output Gram that tablet and Q force."""
    t = validate_text(uniform_gram(n, z))
    emb = embed_text(t)
    tablet = emb.vectors.sum(axis=1)
    tablet /= np.linalg.norm(tablet)
    a = tablet_overlaps(emb, tablet)
    return t, _hand_witness(t, tablet, Q, _forced_output(t, Q, a))


def unpadded_classical(n, Q):
    """Orthonormal n-text with the tablet on its first state and the
    identity output.  The frame psi_0 (x) psi_0 (+ q psi_0 (x) psi_0) lies
    on the target psi_0 (x) psi_0, so [P, Qf] has rank below 2n; at n = 1,
    2n > D."""
    t = validate_text(np.eye(n))
    return t, _hand_witness(t, np.eye(n)[0], Q, np.eye(n))


def _translated(gram, **kwargs):
    t = validate_text(gram)
    return t, translate(t, **kwargs)


def _realized(shape):
    res = realize_graph(shape_to_graph(shape))
    return res.text, res.witness


def witness_cases():
    """{label: builder of (text, finished witness)} over every construction
    route, the unpadded tablets and the rank-deficient [P, Qf] included."""
    cases = {}
    for n in (1, 2, 3, 8, 16, 24, 32):
        for z in ((0.4,) if n == 1 else (0.4, -0.5 / (n - 1))):
            cases[f"uniform{n}_z{z:+.3f}"] = lambda n=n, z=z: _translated(uniform_gram(n, z))
    for kwargs in ({}, {"force_sign": 0}, {"force_sign": +1}, {"force_sign": -1}):
        label = "classical3" + "".join(f"_{k}{v}" for k, v in kwargs.items())
        cases[label] = lambda kwargs=kwargs: _translated(np.eye(3), **kwargs)
    core = gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram
    pendant = with_pendant(core, 0, 0.1)
    cases["mixed_pendant"] = lambda: _translated(pendant)
    cases["mixed_two_pendants"] = lambda: _translated(with_pendant(pendant, 1, 0.1))
    cases["isolated"] = lambda: _translated(with_pendant(with_pendant(core, 0, 0.0), 0, 0.0))
    cases["realize_graph"] = lambda: _realized(WellSplitShape(n2=3, ell=2, m=(2, 1)))
    for n in (2, 3, 8, 16):
        cases[f"unpadded_uniform{n}"] = lambda n=n: unpadded_uniform(n, 0.4, -0.01)
    for n in (1, 2, 3):
        for Q in (0.0, 0.3):
            cases[f"unpadded_classical{n}_Q{Q}"] = lambda n=n, Q=Q: unpadded_classical(n, Q)
    return cases


WITNESS_CASES = witness_cases()


@pytest.fixture(scope="module", params=list(WITNESS_CASES))
def finished(request):
    return WITNESS_CASES[request.param]()


def _frame_span(t, w):
    """Orthonormal basis of span[Omega, chi (x) psi], which is span[P, Qf]."""
    emb = translation._embedding_for_tablet(t, len(w.tablet))
    both = np.hstack([build_omega(emb, w.tablet, w.q),
                      translation._product_targets(validate_text(w.output_gram), emb)])
    u, s, _ = np.linalg.svd(both, full_matrices=False)
    return u[:, s > 1e-10 * s[0]]


def _complex_defect(u):
    """max |U^H U - I| from the complex product: the reference for
    `translation._unitarity_defect`."""
    return float(np.max(np.abs(u.conj().T @ u - np.eye(len(u)))))


def _rounding_bound(u):
    """How far two evaluations of the defect of u may differ: each lies
    within sqrt(2) gamma_2D max_j |u_j|^2 and a few roundings of the result
    of the exact value; the 2 extra terms also cover rotating u by a phase."""
    eps = np.finfo(float).eps
    return 4 * (len(u) + 2) * eps * float(np.max(np.sum(np.abs(u) ** 2, axis=0)))


class TestUnitaryOnEveryRoute:
    def test_every_gate_passes(self, finished):
        t, w = finished
        rep = check_witness(t, w)
        assert rep.passed
        assert rep.r1 <= translation.EQ4_TOL and rep.r3 <= translation.EQ2_TOL
        assert rep.unitarity <= translation.UNITARITY_TOL

    def test_identity_off_the_frames(self, finished):
        t, w = finished
        span = _frame_span(t, w)
        rng = np.random.default_rng(len(w.unitary))
        x = rng.standard_normal((len(span), 3)) + 1j * rng.standard_normal((len(span), 3))
        x -= span @ (span.conj().T @ x)
        assert np.max(np.abs(w.unitary @ x - x)) <= 1e-12

    def test_deterministic(self, finished):
        t, w = finished
        assert synthesize_unitary(t, w).tobytes() == synthesize_unitary(t, w).tobytes()

    def test_unitarity_matches_identity_form(self, finished, count_calls):
        # check_witness reports the value of max |U^H U - I| from the
        # complex product, up to rounding, when the dense product runs,
        # and otherwise the span certificate, an upper bound on that value
        # that clears the gate; for a float64 U and for the complex128 U a
        # witness file loads as
        t, w = finished
        dense = count_calls(translation._unitarity_defect)
        for u in (w.unitary, np.asarray(w.unitary, dtype=complex),
                  off_frame_stretch(t, w).unitary):
            bare = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet,
                                      output_gram=w.output_gram, unitary=u)
            dense.clear()
            got = check_witness(t, bare).unitarity
            if dense:
                assert abs(got - _complex_defect(u)) <= _rounding_bound(u)
            else:
                assert _complex_defect(u) - _rounding_bound(u) <= got
                assert translation._clears(got, len(u))

    def test_phase_keeps_the_defect(self, finished):
        # every float64 U here takes the real path; e^{0.3i} U takes the
        # complex one
        _, w = finished
        u = np.asarray(w.unitary)
        defect = translation._unitarity_defect
        assert abs(defect(np.exp(0.3j) * u) - defect(u)) <= _rounding_bound(u)

    def test_imaginary_defect_fails(self):
        # column 1 gains 1e-9 i times column 0: (U^H U)_01 gains 1e-9 i and
        # no real part, so only the imaginary block can see it
        t, w = _translated(uniform_gram(8, 0.4))
        u = np.array(w.unitary, dtype=complex)
        assert not u.imag.any()
        u[:, 1] += 1e-9j * u[:, 0]
        rep = check_witness(t, TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet,
                                                  output_gram=w.output_gram, unitary=u))
        assert not rep.passed
        assert rep.unitarity == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("entry", [1e100, 1e100j, np.nan, complex(0.0, np.nan)],
                             ids=["huge_real", "huge_imag", "nan_real", "nan_imag"])
    def test_bad_entry_fails_without_a_warning(self, entry):
        # |G| is taken without squaring its entries, so 1e200 in G warns no
        # more than the complex product did; NaN fails the gate
        t, w = _translated(uniform_gram(3, 0.4))
        u = np.array(w.unitary, dtype=complex)
        u[0, 1] = entry
        bare = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet,
                                  output_gram=w.output_gram, unitary=u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_witness(t, bare)
        assert not rep.passed

    @pytest.mark.parametrize("kind", ["float64", "real", "complex"])
    def test_seeded_unitary_passes(self, kind):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((50, 50))
        if kind == "complex":
            z = z + 1j * rng.standard_normal((50, 50))
        u = np.linalg.qr(z)[0]
        if kind != "float64":
            u = u.astype(complex)
        got = translation._unitarity_defect(u)
        assert got <= translation.UNITARITY_TOL
        assert abs(got - _complex_defect(u)) <= _rounding_bound(u)

    @pytest.mark.parametrize("u, ref", [(1.0, 0.0), (1j, 0.0), (0.6 + 0.8j, 0.0),
                                        (2.0, 3.0), (2j, 3.0)])
    def test_one_dimension(self, u, ref):
        u = np.array([[u]], dtype=complex)
        assert abs(translation._unitarity_defect(u) - ref) <= _rounding_bound(u)

    @pytest.mark.parametrize("gram", [uniform_gram(8, 0.4), np.eye(1)], ids=["uniform8", "one"])
    def test_no_full_svd(self, gram, count_calls):
        t, w = _translated(gram)
        calls = count_calls(np.linalg.svd, np.linalg)
        synthesize_unitary(t, w)
        assert calls
        for call in calls:
            kwargs = call[-1] if isinstance(call[-1], dict) else {}
            assert not kwargs.get("full_matrices", call[1] if len(call) > 1 else True)


def _isolated_uniform(n, idx, z):
    """Identity n-text with a uniform block on the states `idx`."""
    g = np.eye(n, dtype=complex)
    g[np.ix_(idx, idx)] = uniform_gram(len(idx), z)
    return g


def _noisy_classical(n, seed):
    """Classical n-text whose off-diagonal entries are complex and below 1e-9."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = np.eye(n, dtype=complex) + 1e-10 * (noise + noise.conj().T) / 4.0
    np.fill_diagonal(g, 1.0)
    return g


REAL_TEXTS = {
    "uniform8+": lambda: _translated(uniform_gram(8, 0.4)),
    "uniform8-": lambda: _translated(uniform_gram(8, -0.5 / 7)),
    "realized": lambda: _realized(WellSplitShape(n2=3, ell=2, m=(2, 1))),
    "isolated_uniform": lambda: _translated(_isolated_uniform(8, [0, 2, 3, 5, 7], -0.1)),
    "identity": lambda: _translated(np.eye(3)),
}
COMPLEX_TEXTS = {
    "random_efficient3": lambda: _translated(
        gen_text(GenSpec(mode="random_efficient", n=3, seed=1)).gram),
    "noisy_classical": lambda: _translated(_noisy_classical(4, 7)),
}


class TestRealUnitary:
    """A text whose frames and targets are exactly real gets a float64
    unitary; any other text keeps a complex128 one."""

    @pytest.mark.parametrize("label", list(REAL_TEXTS))
    def test_real_text_gets_float64(self, label):
        t, w = REAL_TEXTS[label]()
        assert w.unitary.dtype == np.float64
        assert check_witness(t, w).passed

    @pytest.mark.parametrize("label", list(COMPLEX_TEXTS))
    def test_complex_text_keeps_complex128(self, label):
        t, w = COMPLEX_TEXTS[label]()
        assert np.iscomplexobj(t.gram) and t.gram.imag.any()
        assert w.unitary.dtype == np.complex128 and w.unitary.imag.any()
        assert check_witness(t, w).passed

    def test_real_kernels(self, count_calls):
        # the embeddings keep their complex eigh of a text's Gram, so their
        # bits stay; every factorization of the frames runs real
        t, w = _translated(uniform_gram(8, -0.5 / 7))
        calls = {fn.__name__: count_calls(fn, np.linalg)
                 for fn in (np.linalg.qr, np.linalg.svd, np.linalg.eigh)}
        synthesize_unitary(t, w)
        assert all(calls.values())
        grams = (t.gram, validate_text(w.output_gram).gram)
        frame_grams = [c[0] for c in calls["eigh"]
                       if not any(np.array_equal(c[0], g) for g in grams)]
        assert len(frame_grams) == 1
        for a in frame_grams + [c[0] for c in calls["qr"] + calls["svd"]]:
            assert a.dtype == np.float64

    def test_round_trip_keeps_the_report(self, tmp_path):
        # a v1 file loads U as complex128 with a zero imaginary part, which
        # check_witness takes back to the same float64 U
        t, w = _translated(uniform_gram(8, -0.5 / 7))
        assert w.unitary.dtype == np.float64
        path = str(tmp_path / "w.json")
        qio.save_witness(w, path)
        back = qio.load_witness(path)
        assert back.unitary.dtype == np.complex128 and not back.unitary.imag.any()
        a, b = check_witness(t, w), check_witness(t, back)
        assert a.passed and b.passed
        assert (a.r1, a.r3, a.unitarity) == (b.r1, b.r3, b.unitarity)


def _certified(t, w):
    """A fresh synthesis of w's unitary, the defect bound certified for it,
    and the frames it was built on."""
    frames = translation._witness_frames(t, w)
    U = synthesize_unitary(t, w, frames)
    ref, bound = translation._certificate
    assert ref() is U
    return U, bound, frames


class TestDefectCertificate:
    """`translation._defect_bound` is the one certified bound.  It bounds
    the exact part I + E W E^H from m x m data and adds a remainder r, which
    `synthesize_unitary` takes a priori from the rounding of forming U out
    of its factors and `check_witness` measures from U (`_span_bound`).
    `synth._finish` takes the factor bound in place of any other only when
    it clears the gate with room for the dense product's rounding."""

    def test_bound_covers_the_defect_and_clears_the_gate(self, finished, count_calls):
        # the remainder measured from U bounds the same U too, at any D
        t, w = finished
        U, bound, frames = _certified(t, w)
        assert U.tobytes() == np.asarray(w.unitary).tobytes()
        assert translation._unitarity_defect(U) <= bound < translation.UNITARITY_TOL
        measured = translation._span_bound(U, frames.omegas, frames.targets)
        for b in (bound, measured):
            assert _complex_defect(U) - _rounding_bound(U) <= b
        dense = count_calls(translation._unitarity_defect)
        assert translation._certified_defect(U, frames) == bound
        assert dense == []

    def test_bound_is_for_that_array_alone(self, count_calls):
        t, w = _translated(uniform_gram(8, 0.4))
        U, _, frames = _certified(t, w)
        dense = count_calls(translation._unitarity_defect)
        copy = U.copy()
        assert translation._certified_defect(copy, frames) == translation._unitarity_defect(U)
        assert len(dense) == 2 and dense[0][0] is copy

    @pytest.mark.parametrize("gram", [uniform_gram(24, -0.02), _noisy_classical(24, 7)],
                             ids=["uniform24", "noisy_classical24"])
    def test_both_remainders_go_through_the_one_exact_part(self, gram, count_calls):
        # translate passes the factors and the rounding of adding I;
        # check_witness passes the QR basis of the frames and the measured
        # remainder; each bound sums E^H E once over row blocks
        t = validate_text(gram)
        bounds = count_calls(translation._defect_bound)
        grams = count_calls(translation._blocked_gram)
        w = translate(t)
        assert len(bounds) == len(grams) == 1
        E, W, T, r = bounds[0]
        assert grams[0][0] is E and E.shape[0] == len(w.unitary)
        assert r == translation._gamma(1) * np.max(np.abs(np.diagonal(w.unitary)))
        rep = check_witness(t, w)
        assert len(bounds) == len(grams) == 2
        Eb, Wb, Tb, rb = bounds[1]
        assert grams[1][0] is Eb and Eb.shape == (len(w.unitary), 2 * t.n)
        assert rep.passed and rep.unitarity == translation._defect_bound(Eb, Wb, Tb, rb)

    @pytest.mark.parametrize("factor, size", [(0, 1e-9), (0, 1e-11), (1, 1e-9), (1, 1e-11)],
                             ids=["E_1e-9", "E_1e-11", "W_1e-9", "W_1e-11"])
    def test_perturbed_factor_falls_back_to_the_dense_check(self, factor, size,
                                                            monkeypatch, count_calls):
        # a perturbation of 1e-9 fails both checks; one of 1e-11 leaves the
        # dense defect under the gate but not the bound, so the dense
        # product decides and the witness passes
        t = validate_text(uniform_gram(8, 0.4))
        rng = np.random.default_rng(5)
        unperturbed = translation._unitary_factors

        def perturbed(*args):
            factors = list(unperturbed(*args))
            factors[factor] = factors[factor] + size * rng.standard_normal(factors[factor].shape)
            return tuple(factors)

        monkeypatch.setattr(translation, "_unitary_factors", perturbed)
        w = synth._construct(t, None)
        dense = count_calls(translation._unitarity_defect)
        try:
            synth._finish(t, w)
            passed = True
        except SearchBudgetExhausted:
            passed = False
        assert len(dense) == 1 and dense[0][0] is w.unitary
        assert translation._certificate[1] >= translation._unitarity_defect(w.unitary)
        rep = check_witness(t, w)
        assert passed == rep.passed == (size < 1e-10)
        if passed:
            assert w.residuals == {"eq4": rep.r1, "eq2": rep.r3}

    @pytest.mark.parametrize("gram", [uniform_gram(24, -0.02), _noisy_classical(24, 7)],
                             ids=["uniform24", "noisy_classical24"])
    def test_translate_runs_no_dense_product(self, gram, count_calls):
        # neither translate nor, on its measured remainder, check_witness
        t = validate_text(gram)
        dense = count_calls(translation._unitarity_defect)
        w = translate(t)
        rep = check_witness(t, w)
        assert dense == []
        assert rep.passed and w.residuals == {"eq4": rep.r1, "eq2": rep.r3}
        ref = translation._check(t, w, translation._unitarity_defect)
        assert (rep.r1, rep.r2_ok, rep.r3, rep.passed) == (ref.r1, ref.r2_ok, ref.r3, ref.passed)
        assert ref.unitarity - _rounding_bound(w.unitary) <= rep.unitarity


def _span_witnesses():
    """{label: builder of (text, finished witness)} on which check_witness
    takes the span certificate: every `finished` witness at or above
    SPAN_MIN_DIM, two complex ones, and one read back from a file."""
    cases = {label: WITNESS_CASES[label] for label in WITNESS_CASES
             if label.startswith(("uniform24", "uniform32"))}
    for n in (20, 24):
        cases[f"noisy_classical{n}"] = lambda n=n: _translated(_noisy_classical(n, 7))
    cases["uniform24_loaded"] = _loaded_uniform24
    return cases


def _loaded_uniform24():
    # a file stores every entry as a complex pair, so U loads as complex128
    # with a zero imaginary part
    t, w = _translated(uniform_gram(24, -0.02))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/w.json"
        qio.save_witness(w, path)
        back = qio.load_witness(path)
    assert back.unitary.dtype == np.complex128 and not back.unitary.imag.any()
    return t, back


SPAN_WITNESSES = _span_witnesses()


@pytest.fixture(scope="module", params=list(SPAN_WITNESSES))
def span_witness(request):
    return SPAN_WITNESSES[request.param]()


def _with_unitary(w, u):
    return TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet, output_gram=w.output_gram,
                              unitary=u)


def _off_span_moves(t, w, size):
    """w's unitary U moved by `size` times a unit matrix in each way the
    certificate must see, with span = span[Omega, chi (x) psi], j the
    coordinate farthest from it and k the nearest: column j gains a unit
    vector inside the span, or one outside it (both all but invisible to
    U Eb, so only the measured remainder R sees them); U gains v s^H, v
    outside and s inside (W = Eb^H (U Eb - Eb) misses v, so again only R
    sees it); U gains U s s^H (inside the span, so only the exact part
    sees it, through V^H V - I)."""
    span = _frame_span(t, w)
    rows = np.linalg.norm(span, axis=1)
    j, k = int(np.argmin(rows)), int(np.argmax(rows))
    U = np.asarray(w.unitary)
    s = span @ span[k].conj()
    s /= np.linalg.norm(s)
    v = -span @ span[j].conj()
    v[j] += 1.0
    v /= np.linalg.norm(v)
    moves = {}
    for label, vec in (("column_inside", U @ s), ("column_outside", v)):
        u = np.array(U, dtype=np.result_type(U, vec))
        u[:, j] += size * vec
        moves[label] = u
    moves["outside_onto_span"] = U + size * np.outer(v, s.conj())
    moves["inside_span"] = U + size * np.outer(U @ s, s.conj())
    return moves


class TestSpanCertificate:
    """From D = SPAN_MIN_DIM on, check_witness bounds the defect of U from U
    and the frames alone (`translation._span_bound`, `_defect_bound` with
    the remainder measured) and takes the bound only when it decides as
    the dense product would."""

    def test_bound_covers_the_defect_and_clears_the_gate(self, span_witness, count_calls):
        # the factor bound of a fresh synthesis covers the same U too
        t, w = span_witness
        assert len(w.unitary) >= translation.SPAN_MIN_DIM
        dense = count_calls(translation._unitarity_defect)
        rep = check_witness(t, w)
        assert dense == [] and rep.passed
        u = np.asarray(w.unitary)
        assert _complex_defect(u) - _rounding_bound(u) <= rep.unitarity < 1e-10
        U, bound, _ = _certified(t, w)
        assert np.array_equal(U, u)
        assert _complex_defect(u) - _rounding_bound(u) <= bound < 1e-10

    def test_bound_covers_moved_unitaries(self, span_witness):
        # moves of 1e-6 leave every rounding term far below the defect, so
        # a bound that missed a term would fall under it
        t, w = span_witness
        frames = translation._witness_frames(t, w)
        for label, u in _off_span_moves(t, w, 1e-6).items():
            defect = _complex_defect(u)
            bound = translation._span_bound(u, frames.omegas, frames.targets)
            assert defect - _rounding_bound(u) <= bound <= 3.0 * defect, label

    def test_decides_as_the_dense_check(self, span_witness):
        t, w = span_witness
        rng = np.random.default_rng(3)
        D = len(w.unitary)
        cases = {f"{label}_{size:g}": u for size in (1e-9, 1e-11)
                 for label, u in _off_span_moves(t, w, size).items()}
        cases["off_frame_stretch"] = off_frame_stretch(t, w).unitary
        cases["random_orthogonal"] = np.linalg.qr(rng.standard_normal((D, D)))[0]
        for label, u in cases.items():
            bare = _with_unitary(w, u)
            rep = check_witness(t, bare)
            ref = translation._check(t, bare, translation._unitarity_defect)
            assert rep.passed == ref.passed == label.endswith("1e-11"), label
            assert (rep.r1, rep.r3) == (ref.r1, ref.r3)

    @pytest.mark.parametrize("entry", [np.nan, 1e100, -1e100], ids=["nan", "huge", "-huge"])
    def test_bad_entry_fails_without_a_warning(self, span_witness, entry):
        t, w = span_witness
        u = np.array(w.unitary)
        u[0, 1] = entry
        bare = _with_unitary(w, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_witness(t, bare)
        assert not rep.passed
        assert not translation._check(t, bare, translation._unitarity_defect).passed

    @pytest.mark.parametrize("gram", [uniform_gram(16, 0.4), _noisy_classical(16, 7)],
                             ids=["uniform16", "noisy_classical16"])
    def test_below_the_crossover_the_dense_product_decides(self, gram, count_calls):
        # the noisy classical 16-text has a complex U at D = 289, the
        # largest dense complex check of the translate benchmark
        t, w = _translated(gram)
        assert w.unitary.dtype == (complex if t.gram.imag.any() else float)
        assert len(w.unitary) < translation.SPAN_MIN_DIM
        dense = count_calls(translation._unitarity_defect)
        rep = check_witness(t, w)
        assert rep.passed
        assert len(dense) == 1 and dense[0][0] is w.unitary
        assert abs(rep.unitarity - _complex_defect(w.unitary)) <= _rounding_bound(w.unitary)

    @pytest.mark.parametrize("n, z", [(48, -0.02), (64, -0.5 / 63)], ids=["n48", "n64"])
    def test_translate_takes_the_factor_bound(self, n, z, count_calls):
        # the factor bound clears at D = 2401 and D = 4225, so _finish runs
        # neither the measured remainder nor the dense product
        t = validate_text(uniform_gram(n, z))
        dense = count_calls(translation._unitarity_defect)
        span = count_calls(translation._span_bound)
        w = translate(t)
        assert dense == [] and span == []
        assert translation._clears(translation._certificate[1], len(w.unitary))


class TestOverlapResidual:
    def test_zero_for_orthogonal_text(self):
        t = validate_text(np.eye(3))
        a = np.zeros(3, dtype=complex)
        assert overlap_residual(t, 0.3, a, np.eye(3, dtype=complex)) == 0.0


def test_witness_from_overlaps_needs_a_nonsingular_gram():
    # a valid text of three states in a plane: det = 0, not efficient
    g = np.array([[1.0, 0.5, -0.5], [0.5, 1.0, 0.5], [-0.5, 0.5, 1.0]], dtype=complex)
    t = validate_text(g)
    assert np.linalg.det(g) == 0.0 and not text_properties(t).efficient
    with pytest.raises(np.linalg.LinAlgError) as exc_info:
        witness_from_overlaps(t, 0.0, np.zeros(3, dtype=complex), np.eye(3, dtype=complex))
    assert isinstance(exc_info.value, ValueError)


class TestRestrictWitness:
    def test_restriction_verifies(self):
        t = validate_text(uniform_gram(4, 0.4))
        w = translate(t)
        for idx in ([0, 1], [1, 3], [0, 2, 3], [3, 2, 1, 0]):
            sub = subtext(t, idx)
            wr = restrict_witness(t, w, idx)
            rep = check_witness(sub, wr)
            assert rep.passed, idx
            assert wr.Q == w.Q

"""Pair construction, the overlap identity, witness checking, and unitary
synthesis."""

import warnings

import numpy as np
import pytest

from qtext import (
    DegenerateNormalizer,
    DuplicateStates,
    GenSpec,
    GramMismatch,
    QOutOfRange,
    TranslationError,
    TranslationWitness,
    WellSplitShape,
    Q_from_q,
    build_omega,
    check_witness,
    embed_text,
    gen_text,
    overlap_residual,
    q_from_Q,
    realize_graph,
    restrict_witness,
    shape_to_graph,
    subtext,
    synthesize_unitary,
    tablet_overlaps,
    translate,
    validate_text,
    witness_from_overlaps,
)
from qtext import translation
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
        with pytest.raises(DegenerateNormalizer):
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
    """The one forced-output kernel, translation.forced_outputs, on texts
    without orthogonal pairs (where every output entry is forced)."""

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
    for kwargs in ({}, {"q0": True}, {"force_sign": +1}, {"force_sign": -1}):
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

    def test_unitarity_matches_identity_form(self, finished):
        # check_witness computes the defect in real arithmetic; it is the
        # value of max |U^H U - I| from the complex product, up to rounding
        t, w = finished
        for u in (w.unitary, off_frame_stretch(t, w).unitary):
            bare = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet,
                                      output_gram=w.output_gram, unitary=u)
            got = check_witness(t, bare).unitarity
            assert abs(got - _complex_defect(u)) <= _rounding_bound(u)

    def test_phase_keeps_the_defect(self, finished):
        # every finished U here with a zero imaginary part takes the real
        # path; e^{0.3i} U takes the complex one
        _, w = finished
        u = np.asarray(w.unitary)
        defect = translation._unitarity_defect
        assert abs(defect(np.exp(0.3j) * u) - defect(u)) <= _rounding_bound(u)

    def test_imaginary_defect_fails(self):
        # column 1 gains 1e-9 i times column 0: (U^H U)_01 gains 1e-9 i and
        # no real part, so only the imaginary block can see it
        t, w = _translated(uniform_gram(8, 0.4))
        u = np.array(w.unitary)
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
        u = np.array(w.unitary)
        u[0, 1] = entry
        bare = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet,
                                  output_gram=w.output_gram, unitary=u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_witness(t, bare)
        assert not rep.passed

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_seeded_unitary_passes(self, kind):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((50, 50))
        if kind == "complex":
            z = z + 1j * rng.standard_normal((50, 50))
        u = np.linalg.qr(z)[0].astype(complex)
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


class TestOverlapResidual:
    def test_zero_for_orthogonal_text(self):
        t = validate_text(np.eye(3))
        a = np.zeros(3, dtype=complex)
        assert overlap_residual(t, 0.3, a, np.eye(3, dtype=complex)) == 0.0


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

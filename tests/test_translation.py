"""Pair construction, the overlap identity, witness checking, and unitary
synthesis."""

import numpy as np
import pytest

from qtext import (
    DegenerateNormalizer,
    DuplicateStates,
    GramMismatch,
    QOutOfRange,
    TranslationError,
    TranslationWitness,
    Q_from_q,
    build_omega,
    check_witness,
    embed_text,
    overlap_residual,
    q_from_Q,
    restrict_witness,
    subtext,
    synthesize_unitary,
    tablet_overlaps,
    translate,
    validate_text,
    witness_from_overlaps,
)
from qtext import translation
from qtext.synth import _forced_output
from qtext.translation import _null_space
from tests.conftest import uniform_gram


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


class TestOutputGram:
    """The one forced-output kernel, synth._forced_output, on texts without
    orthogonal pairs (where every output entry is forced)."""

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
        y = np.array(w.output_gram)
        y[0, 1] = y[1, 0] = 0.99
        bad = TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet, output_gram=y)
        with pytest.raises(GramMismatch):
            synthesize_unitary(uniform3, bad)


class TestNullSpace:
    @staticmethod
    def frame(D, k, seed):
        """Adjoint of a random orthonormal D x k frame, as in synthesize_unitary."""
        rng = np.random.default_rng([seed, D, k])
        raw = rng.standard_normal((D, k)) + 1j * rng.standard_normal((D, k))
        u, _, vh = np.linalg.svd(raw, full_matrices=False)
        return (u @ vh).conj().T

    @pytest.mark.parametrize("D,k", [(4, 1), (9, 3), (16, 4), (25, 6), (49, 8), (64, 64)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scipy(self, D, k, seed):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        A = self.frame(D, k, seed)
        N = _null_space(A)
        ref = scipy_linalg.null_space(A)
        assert N.shape == ref.shape == (D, D - k)
        np.testing.assert_allclose(N, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(N.conj().T @ N, np.eye(D - k), atol=1e-12)
        np.testing.assert_allclose(A @ N, 0, atol=1e-12)

    def test_rank_deficient_rows(self):
        A = self.frame(16, 3, 7)
        A = np.vstack([A, A[0] + A[1]])
        N = _null_space(A)
        assert N.shape == (16, 13)
        np.testing.assert_allclose(N.conj().T @ N, np.eye(13), atol=1e-12)
        np.testing.assert_allclose(A @ N, 0, atol=1e-12)


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

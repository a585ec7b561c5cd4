"""Gram-matrix validation, properties, embedding, and equivalence."""

import numpy as np
import pytest

from qtext import (
    BadDiagonal,
    BorderlineSignature,
    DuplicateStates,
    NonFinite,
    NotHermitian,
    NotPSD,
    SizeMismatch,
    TextError,
    decide_translatable,
    embed_text,
    gram_of,
    graph_of_text,
    null_index_set,
    subtext,
    text_properties,
    texts_equivalent,
    validate_text,
)
from qtext.texts import Text, _lambda_min_above, pd_tol, psd_tol
from tests.conftest import near_zero_gram, uniform_gram


class TestValidateText:
    def test_accepts_identity(self):
        t = validate_text(np.eye(3))
        assert t.n == 3
        np.testing.assert_array_equal(t.gram, np.eye(3, dtype=complex))

    def test_gram_is_read_only(self):
        t = validate_text(uniform_gram(3, 0.5))
        with pytest.raises(ValueError):
            t.gram[0, 1] = 0.9

    def test_rejects_nonsquare(self):
        with pytest.raises(SizeMismatch):
            validate_text(np.ones((2, 3)))

    def test_rejects_scalar_and_empty(self):
        with pytest.raises(SizeMismatch):
            validate_text(np.ones((0, 0)))
        with pytest.raises(SizeMismatch):
            validate_text(np.array(1.0))

    def test_rejects_nan(self):
        g = uniform_gram(3, 0.5)
        g[0, 1] = g[1, 0] = np.nan
        with pytest.raises(NonFinite):
            validate_text(g)

    def test_rejects_nonhermitian(self):
        g = uniform_gram(3, 0.5)
        g[0, 1] = 0.5 + 1e-6j
        with pytest.raises(NotHermitian):
            validate_text(g)

    @pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1), (1, 0)]],
                             ids=["diagonal", "off_diagonal"])
    def test_overflowing_asymmetry_is_not_hermitian(self, entries):
        # Im(z - z^H) = 2e308 overflows to inf, which fails the gate
        # without a warning
        g = uniform_gram(3, 0.5)
        for entry in entries:
            g[entry] = 1e308j
        with pytest.raises(NotHermitian, match="= inf exceeds"):
            validate_text(g)

    def test_rejects_bad_diagonal(self):
        g = uniform_gram(3, 0.5)
        g[1, 1] = 1.0 + 1e-6
        with pytest.raises(BadDiagonal):
            validate_text(g)

    def test_rejects_duplicate_states(self):
        # |z_01| = 1 means the two states coincide up to phase
        g = np.eye(2, dtype=complex)
        g[0, 1] = g[1, 0] = 1.0
        with pytest.raises(DuplicateStates):
            validate_text(g)

    def test_rejects_unit_modulus_complex_overlap(self):
        g = np.eye(2, dtype=complex)
        g[0, 1] = np.exp(0.3j)
        g[1, 0] = np.conj(g[0, 1])
        with pytest.raises(DuplicateStates):
            validate_text(g)

    def test_rejects_indefinite(self):
        # uniform z below -1/(n-1) is not a Gram matrix
        with pytest.raises(NotPSD):
            validate_text(uniform_gram(3, -0.6))

    def test_accepts_singular_psd(self):
        # coplanar triple: rank 2 is fine, only negativity is rejected
        v = np.array([[1, 0], [0, 1], [1, 1]], dtype=complex)
        v /= np.linalg.norm(v, axis=1)[:, None]
        t = validate_text(v @ v.conj().T)
        assert t.n == 3


class TestProperties:
    def test_uniform_real_efficient(self):
        p = text_properties(validate_text(uniform_gram(4, 0.3)))
        assert p.uniform and p.real_text and p.efficient and p.fully_quantum
        assert not p.classical

    def test_classical_identity(self):
        p = text_properties(validate_text(np.eye(5)))
        assert p.classical and p.efficient
        assert not p.fully_quantum
        # all off-diagonals equal zero still counts as uniform
        assert p.uniform

    def test_complex_text_not_real(self, path3):
        g = np.array(path3.gram)
        g[0, 1] = 0.5j
        g[1, 0] = -0.5j
        p = text_properties(validate_text(g))
        assert not p.real_text

    def test_singular_text_not_efficient(self):
        v = np.array([[1, 0], [0, 1], [1, 1]], dtype=complex)
        v /= np.linalg.norm(v, axis=1)[:, None]
        p = text_properties(validate_text(v @ v.conj().T))
        assert not p.efficient

    def test_null_index_set(self, path3):
        assert null_index_set(path3) == frozenset({(0, 2)})
        assert null_index_set(validate_text(uniform_gram(3, 0.5))) == frozenset()

    def test_null_index_set_matches_entrywise_definition(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5, 8, 13, 32, 64):
            for _ in range(3):
                t = validate_text(near_zero_gram(n, rng))
                want = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                                 if abs(t.gram[i, j]) <= 1e-9)
                got = null_index_set(t)
                assert got == want
                assert all(type(k) is int for pair in got for k in pair)

    def test_flags_agree_with_graph_and_null_set(self):
        # one orthogonality test everywhere, also for entries at ZERO_TOL:
        # classical means an edgeless overlap graph, fully quantum means no
        # orthogonal pair
        rng = np.random.default_rng(23)
        for n in [2] * 200 + [3] * 50 + [5, 8, 13, 32, 64]:
            t = validate_text(near_zero_gram(n, rng))
            p = text_properties(t)
            assert p.classical == (not graph_of_text(t).edges)
            assert p.fully_quantum == (not null_index_set(t))


# The PSD and efficiency rules as `eigvalsh` states them; validate_text and
# text_properties decide by Cholesky factorizations outside a rounding band
# and must agree with these everywhere.
_eigvalsh = np.linalg.eigvalsh


def referee_psd_error(gram):
    """(class, message) validate_text raises for a Gram matrix that passes
    every check before the PSD test, or None when it accepts it."""
    n = len(gram)
    lam = _eigvalsh((gram + gram.conj().T) / 2.0)[0]
    if lam < -psd_tol(n):
        return NotPSD, f"min eigenvalue {lam:.3e} below -{psd_tol(n):.1e}"
    return None


def referee_efficient(gram):
    return bool(_eigvalsh(gram)[0] > pd_tol(len(gram)))


def gram_with_lambda_min(rng, n, target):
    """Seeded complex Gram matrix with unit diagonal whose computed
    lambda_min is `target` up to rounding: off-diagonals of a random
    full-rank Gram, scaled until lambda_min lands."""
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v /= np.linalg.norm(v, axis=0)
    base = v.conj().T @ v
    base = (base + base.conj().T) / 2.0
    np.fill_diagonal(base, 1.0)
    off = base - np.eye(n)
    alpha = 1.0
    for _ in range(4):
        lam = _eigvalsh(np.eye(n) + alpha * off)[0]
        alpha *= (1.0 - target) / (1.0 - lam)
    return np.eye(n) + alpha * off


def band(n):
    return 32 * n * (n + 1) * 2.0 ** -53


class TestDefinitenessBand:
    """Texts with lambda_min at -psd_tol(n) and +pd_tol(n), a few ulps
    either way, sit inside the Cholesky band and must get the decision of
    the eigvalsh rule; texts a few band widths away must get it without
    eigvalsh, except for the NotPSD message."""

    # A 2-text has lambda_min = 1 - |z_01| >= 0 once its states are
    # distinct, so n = 2 has no text at -psd_tol.
    CASES = [(2, +1)] + [(n, sign) for n in (4, 16, 32) for sign in (-1, +1)]

    @staticmethod
    def outcome(gram):
        try:
            t = validate_text(gram)
        except TextError as exc:
            return type(exc), str(exc)
        return None, text_properties(t).efficient

    @staticmethod
    def expected(gram):
        return referee_psd_error(gram) or (None, referee_efficient(gram))

    @staticmethod
    def refused_as_inefficient(gram):
        try:
            return decide_translatable(validate_text(gram)).reason == "NOT_EFFICIENT"
        except BorderlineSignature:  # past the efficiency test
            return False

    @pytest.mark.parametrize("n, sign", CASES)
    def test_inside_band_matches_eigvalsh_rule(self, n, sign, count_calls):
        tol = psd_tol(n)
        assert tol == pd_tol(n)
        rng = np.random.default_rng([29, n, sign + 1])
        offsets = [k * 2.0 ** -52 for k in (-3, -1, 0, 1, 3)] + [-band(n) / 8, band(n) / 8]
        grams = [gram_with_lambda_min(rng, n, sign * tol + d) for d in offsets]
        for g in grams:
            assert abs(_eigvalsh(g)[0] - sign * tol) < band(n) / 4
        want = [self.expected(g) for g in grams]
        # both answers occur
        assert len({w[0] or w[1] for w in want}) == 2
        calls = count_calls(np.linalg.eigvalsh, np.linalg)
        assert [self.outcome(g) for g in grams] == want
        # every decision fell back on eigvalsh
        assert len(calls) >= len(grams)
        if sign > 0:
            assert [self.refused_as_inefficient(g) for g in grams] == [
                not eff for _, eff in want]

    @pytest.mark.parametrize("n, sign", CASES)
    @pytest.mark.parametrize("side", [-4, +4])
    def test_outside_band_needs_no_eigvalsh(self, n, sign, side, count_calls):
        tol = psd_tol(n)
        rng = np.random.default_rng([31, n, sign + 1, side + 4])
        g = gram_with_lambda_min(rng, n, sign * tol + side * band(n))
        want = self.expected(g)
        calls = count_calls(np.linalg.eigvalsh, np.linalg)
        assert self.outcome(g) == want
        # only a NotPSD message needs the eigenvalue
        assert len(calls) == (want[0] is NotPSD)


def old_psd_outcome(gram):
    """(class, message) of NotPSD, or None, by the PSD test validate_text
    ran before it kept an efficiency verdict: the Cholesky band on the
    Hermitian part first, eigvalsh only on a failure."""
    n = len(gram)
    h = (gram + gram.conj().T) / 2.0
    if not _lambda_min_above(h, -psd_tol(n)):
        lam = _eigvalsh(h)[0]
        if lam < -psd_tol(n):
            return NotPSD, f"min eigenvalue {lam:.3e} below -{psd_tol(n):.1e}"
    return None


class TestKeptVerdict:
    """validate_text takes the efficiency verdict first and keeps it; only a
    text that verdict refuses runs the PSD test."""

    @pytest.mark.parametrize("n, sign", TestDefinitenessBand.CASES)
    def test_verdict_and_refusals_are_unchanged(self, n, sign):
        # texts within two band widths w of +pd_tol(n) and of -psd_tol(n)
        rng = np.random.default_rng([37, n, sign + 1])
        w = band(n)
        offsets = [k * w for k in (-2, -1, -0.5, 0, 0.5, 1, 2)] + [k * 2.0 ** -52 for k in (-1, 1)]
        outcomes = set()
        for d in offsets:
            g = gram_with_lambda_min(rng, n, sign * psd_tol(n) + d)
            want = old_psd_outcome(g)
            try:
                t = validate_text(g)
            except NotPSD as exc:
                assert want == (NotPSD, str(exc))
                outcomes.add("NotPSD")
                continue
            assert want is None
            fresh = _lambda_min_above(np.array(g, dtype=complex), pd_tol(n))
            assert t.__dict__["efficient"] == fresh == text_properties(t).efficient
            outcomes.add(fresh)
        # both answers occur at each edge
        assert len(outcomes) == 2


class TestTextOnAView:
    def test_writes_to_the_base_do_not_reach_the_text(self):
        g = np.eye(3, dtype=complex)
        t = Text(3, g[:])
        g[0, 1] = 0.5
        g[1, 0] = 0.5
        assert np.array_equal(t.gram, np.eye(3)) and not t.gram.flags.writeable
        emb = embed_text(t)
        g[0, 2] = g[2, 0] = 0.9
        assert np.array_equal(t.gram, np.eye(3))
        assert t.efficient == _lambda_min_above(np.eye(3, dtype=complex), pd_tol(3))
        assert embed_text(t) is emb
        np.testing.assert_array_equal(emb.vectors, embed_text(validate_text(np.eye(3))).vectors)

    def test_owned_arrays_are_not_copied(self, path3):
        raw = np.array(path3.gram)
        assert validate_text(raw).gram.base is None
        assert subtext(path3, [2, 0]).gram.base is None


class TestUniformSpectrum:
    def test_frozen_eigenvalues(self):
        # uniform n=3, z=1/2: eigenvalues 1+(n-1)z and 1-z
        t = validate_text(uniform_gram(3, 0.5))
        lam = np.linalg.eigvalsh(t.gram)
        np.testing.assert_allclose(np.sort(lam), [0.5, 0.5, 2.0], atol=1e-14)

    def test_closed_form_any_n(self):
        for n, z in [(2, 0.3), (4, -0.2), (6, 0.9)]:
            lam = np.sort(np.linalg.eigvalsh(uniform_gram(n, z)))
            expect = np.sort([1 + (n - 1) * z] + [1 - z] * (n - 1))
            np.testing.assert_allclose(lam, expect, atol=1e-12)


class TestSubtext:
    def test_picks_rows_and_columns(self, path3):
        s = subtext(path3, [2, 0])
        np.testing.assert_array_equal(s.gram, np.eye(2, dtype=complex))
        s2 = subtext(path3, [1, 2])
        assert s2.gram[0, 1] == pytest.approx(0.2)

    def test_rejects_repeats(self, path3):
        with pytest.raises(ValueError):
            subtext(path3, [0, 0])


class TestEmbedding:
    def test_round_trip(self, path3):
        emb = embed_text(path3)
        np.testing.assert_allclose(gram_of(emb.vectors), path3.gram, atol=1e-10)
        # columns are unit states
        norms = np.linalg.norm(emb.vectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_rank_two_text_gets_two_dims(self):
        v = np.array([[1, 0], [0, 1], [1, 1]], dtype=complex)
        v /= np.linalg.norm(v, axis=1)[:, None]
        emb = embed_text(validate_text(v @ v.conj().T))
        assert emb.dim == 2

    def test_padding_adds_zero_row(self, uniform3):
        emb = embed_text(uniform3, pad_extra_dim=True)
        assert emb.dim == 4
        np.testing.assert_array_equal(emb.vectors[3], 0)
        np.testing.assert_allclose(gram_of(emb.vectors), uniform3.gram, atol=1e-10)

    def test_padded_form_is_the_kept_embedding_and_a_zero_row(self, path3):
        emb = embed_text(path3)
        assert embed_text(path3) is emb and not emb.padded
        padded = embed_text(path3, pad_extra_dim=True)
        assert (padded.dim, padded.padded) == (emb.dim + 1, True)
        assert padded.vectors.tobytes() == np.vstack([emb.vectors, np.zeros((1, 3))]).tobytes()

    def test_complex_round_trip(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        v /= np.linalg.norm(v, axis=1)[:, None]
        g = v @ v.conj().T
        np.fill_diagonal(g, 1.0)
        t = validate_text(g)
        emb = embed_text(t)
        np.testing.assert_allclose(gram_of(emb.vectors), t.gram, atol=1e-10)


class TestEquivalence:
    def test_phase_rotation_is_equivalent(self, path3):
        ph = np.exp(1j * np.array([0.3, -1.2, 2.5]))
        g2 = np.outer(ph.conj(), ph) * path3.gram
        assert texts_equivalent(path3, validate_text(g2))

    def test_different_moduli_not_equivalent(self, path3):
        g2 = np.array(path3.gram)
        g2[0, 1] = g2[1, 0] = 0.4
        assert not texts_equivalent(path3, validate_text(g2))

    def test_inconsistent_phases_not_equivalent(self, uniform3):
        # rotating a single entry breaks the cycle condition
        g2 = np.array(uniform3.gram)
        g2[0, 1] = 0.5 * np.exp(0.7j)
        g2[1, 0] = np.conj(g2[0, 1])
        assert not texts_equivalent(uniform3, validate_text(g2))

    def test_size_mismatch_raises(self, uniform3, path3):
        with pytest.raises(SizeMismatch):
            texts_equivalent(uniform3, validate_text(np.eye(4)))
        assert texts_equivalent(path3, path3)

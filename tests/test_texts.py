"""Gram-matrix validation, properties, embedding, and equivalence."""

import numpy as np
import pytest

from qtext import (
    BadDiagonal,
    DuplicateStates,
    NonFinite,
    NotHermitian,
    NotPSD,
    SizeMismatch,
    embed_text,
    gram_of,
    null_index_set,
    subtext,
    text_properties,
    texts_equivalent,
    validate_text,
)
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

"""Eigenvalue signature of the inverse-overlap matrix and the decision
procedure."""

import numpy as np
import pytest

from qtext import (
    BorderlineSignature,
    GraphClass,
    HasOrthogonalPair,
    decide_translatable,
    decide_zero_translatable,
    gen_text,
    GenSpec,
    hadamard_inverse_signature,
    subtext,
    validate_text,
)
from tests.conftest import uniform_gram


class TestSignature:
    def test_frozen_uniform3(self):
        # M = 1/z for uniform z = 1/2: spectrum {5, -1, -1}
        sig = hadamard_inverse_signature(validate_text(uniform_gram(3, 0.5)))
        np.testing.assert_allclose(sorted(sig.eigenvalues), [-1, -1, 5],
                                   atol=1e-12)
        assert (sig.n_pos, sig.n_neg, sig.n_zero) == (1, 2, 0)
        assert sig.admissible_signs == {-1}
        assert sig.det_nonzero

    def test_frozen_pair(self):
        # two states, z = 1/2: spectrum {3, -1}
        sig = hadamard_inverse_signature(validate_text(uniform_gram(2, 0.5)))
        np.testing.assert_allclose(sorted(sig.eigenvalues), [-1, 3], atol=1e-12)
        assert (sig.n_pos, sig.n_neg) == (1, 1)
        # either sign works for a pair
        assert set(sig.admissible_signs) == {-1, +1}

    def test_frozen_uniform4_negative(self):
        # uniform z = -1/5 on four states: spectrum {6, 6, 6, -14}
        sig = hadamard_inverse_signature(validate_text(uniform_gram(4, -0.2)))
        np.testing.assert_allclose(sorted(sig.eigenvalues), [-14, 6, 6, 6],
                                   atol=1e-11)
        assert (sig.n_pos, sig.n_neg, sig.n_zero) == (3, 1, 0)
        assert sig.admissible_signs == {+1}

    def test_exact_singular(self):
        # z_01 = z_02 = 1/2, z_12 = 1/7 puts one eigenvalue of M at zero:
        # spectrum {9, 0, -6}
        g = np.array([[1.0, 0.5, 0.5],
                      [0.5, 1.0, 1.0 / 7.0],
                      [0.5, 1.0 / 7.0, 1.0]], dtype=complex)
        sig = hadamard_inverse_signature(validate_text(g))
        np.testing.assert_allclose(sorted(sig.eigenvalues), [-6, 0, 9],
                                   atol=1e-7)
        assert (sig.n_pos, sig.n_neg, sig.n_zero) == (1, 1, 1)
        assert not sig.det_nonzero
        assert sig.admissible_signs == {-1, +1}

    def test_borderline_abort(self):
        # just off the singular point: the small eigenvalue lands inside the
        # undecidable band around the zero threshold
        g = np.array([[1.0, 0.5, 0.5],
                      [0.5, 1.0, 1.0 / 7.0 + 5e-9],
                      [0.5, 1.0 / 7.0 + 5e-9, 1.0]], dtype=complex)
        with pytest.raises(BorderlineSignature):
            hadamard_inverse_signature(validate_text(g))

    def test_resolved_just_outside_band(self):
        g = np.array([[1.0, 0.5, 0.5],
                      [0.5, 1.0, 1.0 / 7.0 + 1e-4],
                      [0.5, 1.0 / 7.0 + 1e-4, 1.0]], dtype=complex)
        sig = hadamard_inverse_signature(validate_text(g))
        assert (sig.n_pos, sig.n_neg, sig.n_zero) == (1, 2, 0)

    def test_rejects_orthogonal_pair(self, path3):
        with pytest.raises(HasOrthogonalPair):
            hadamard_inverse_signature(path3)

    def test_untranslatable_inertia(self):
        t = gen_text(GenSpec(mode="untranslatable4", seed=0))
        sig = hadamard_inverse_signature(t)
        assert (sig.n_pos, sig.n_neg, sig.n_zero) == (2, 2, 0)
        assert sig.admissible_signs == frozenset()


class TestDecideFullyQuantum:
    """A text without orthogonal pairs is translatable exactly when its
    signature admits a sign of Q; det_nonzero says whether the output can
    be efficient."""

    def test_uniform3_needs_negative(self):
        sig = hadamard_inverse_signature(validate_text(uniform_gram(3, 0.5)))
        assert sig.admissible_signs == {-1}
        assert sig.det_nonzero

    def test_uniform4_negative_needs_positive(self):
        sig = hadamard_inverse_signature(validate_text(uniform_gram(4, -0.2)))
        assert sig.admissible_signs == {+1}

    def test_untranslatable4(self):
        t = gen_text(GenSpec(mode="untranslatable4", seed=0))
        assert hadamard_inverse_signature(t).admissible_signs == frozenset()
        assert not decide_translatable(t).translatable


class TestDecide:
    def test_classical(self):
        d = decide_translatable(validate_text(np.eye(4)))
        assert d.translatable and d.reason == "OK_CLASSICAL"
        # no constraint at all: any Q clones an orthogonal family
        assert d.sign_constraint is None
        assert d.decomposition.core == ()
        assert d.decomposition.isolated == (0, 1, 2, 3)

    def test_not_efficient(self):
        # uniform z = -1/2 on three states is singular
        d = decide_translatable(validate_text(uniform_gram(3, -0.5)))
        assert not d.translatable and d.reason == "NOT_EFFICIENT"

    def test_not_well_split(self, two_k2):
        d = decide_translatable(two_k2)
        assert not d.translatable and d.reason == "NOT_WELL_SPLIT"
        assert d.forbidden_witness.kind == "TwoK2"
        assert sorted(d.forbidden_witness.vertices) == [0, 1, 2, 3]

    def test_fully_quantum(self):
        d = decide_translatable(validate_text(uniform_gram(3, 0.5)))
        assert d.translatable and d.reason == "OK_FULLY_QUANTUM"
        assert d.sign_constraint == {-1}
        assert d.decomposition.core == (0, 1, 2)
        assert d.decomposition.anchors == {} and d.decomposition.isolated == ()

    def test_signature_fail(self):
        t = gen_text(GenSpec(mode="untranslatable4", seed=0))
        d = decide_translatable(t)
        assert not d.translatable and d.reason == "THEOREM_F_FAIL"
        # inertia (2,2,0) admits no sign at all
        assert d.sign_constraint == frozenset()

    def test_mixed(self, path3):
        d = decide_translatable(path3)
        assert d.translatable and d.reason == "OK_MIXED"
        assert d.sign_constraint == {+1}
        # chain 0-1-2: vertex 1 is the hub, one end becomes the pendant
        assert d.decomposition.anchors == {2: 1}
        assert d.decomposition.core == (0, 1)

    def test_core_sign_fail(self):
        # pendant on a uniform-(1/2) triangle: the core admits only -1,
        # but a pendant requires +1
        g = uniform_gram(4, 0.0)
        g[:3, :3] = uniform_gram(3, 0.5)
        g[2, 3] = g[3, 2] = 0.2
        d = decide_translatable(validate_text(g))
        assert not d.translatable and d.reason == "THEOREM_I_FAIL"
        assert d.sign_constraint == {+1}

    def test_isolated_states_join_classical_part(self, path3):
        g = np.eye(4, dtype=complex)
        g[:3, :3] = path3.gram
        d = decide_translatable(validate_text(g))
        assert d.translatable and d.reason == "OK_MIXED"
        assert d.decomposition.isolated == (3,)

    def test_permutation_invariance(self):
        t = gen_text(GenSpec(mode="untranslatable4", seed=1))
        perm = [2, 0, 3, 1]
        tp = subtext(t, perm)
        assert decide_translatable(t).reason == decide_translatable(tp).reason

    def test_rephase_invariance(self, path3):
        ph = np.exp(1j * np.array([0.4, 1.1, -2.0]))
        tp = validate_text(np.outer(ph.conj(), ph) * path3.gram)
        d0 = decide_translatable(path3)
        d1 = decide_translatable(tp)
        assert (d0.translatable, d0.reason) == (d1.translatable, d1.reason)


class TestDecideZero:
    def test_classical_ok(self):
        d = decide_zero_translatable(validate_text(np.eye(3)))
        assert d.translatable and d.reason == "OK_CLASSICAL"
        assert d.sign_constraint == {0}

    def test_quantum_rejected(self, uniform3):
        d = decide_zero_translatable(uniform3)
        assert not d.translatable and d.reason == "Q0_NOT_CLASSICAL"

    def test_near_orthogonal_boundary(self):
        # overlap exactly at the orthogonality tolerance counts as classical
        g = np.eye(2, dtype=complex)
        g[0, 1] = g[1, 0] = 0.9e-9
        d = decide_zero_translatable(validate_text(g))
        assert d.translatable

"""Witnesses for translating a text: frame states, output Grams, unitaries.

A translation of a text {psi_i} is a unitary U on a doubled space together
with a unit *tablet* state psi_0 and a parameter q such that the frame
states

    Omega_i = (psi_i (x) psi_0 + q psi_0 (x) psi_i) / sqrt(A_i)

are mapped onto product states chi_i (x) psi_i.  Such a unitary exists iff
the two families have equal Gram matrices, which reduces to the overlap
conditions

    z_ij + Q a_i conj(a_j) = sqrt(B_i B_j) y_ij z_ij        (i < j)

with a_i = <psi_i|psi_0>, B_i = 1 + Q |a_i|^2 and Q = 2 Re(q) / (1 + |q|^2).
Pairs with z_ij = 0 impose no condition: the corresponding output overlaps
y_ij are free, subject only to the output Gram being a valid text.

A witness stores Q, q, the tablet, the output Gram and optionally U; the
overlaps a_i, the factors B_i and the frame states are recomputed from
them wherever they are needed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .texts import (
    Text,
    StateEmbedding,
    _upper_index,
    embed_text,
    subtext,
    validate_text,
    TextError,
)

EQ4_TOL = 1e-8
EQ2_TOL = 1e-8
UNITARITY_TOL = 1e-10
TABLET_NORM_TOL = 1e-10
Q_CONSISTENCY_TOL = 1e-12
B_FLOOR = 1e-12
# a bound of the feasible set: constructed output overlaps stay at or below
# this modulus, a margin inside validate_text's 1 - 1e-12
MODULUS_CAP = 1.0 - 1e-6
FRAME_RANK_TOL = 1e-12
_ROUNDOFF = 2.0 ** -53


class TranslationError(ValueError):
    pass


class QOutOfRange(TranslationError):
    pass


class DegenerateB(TranslationError):
    pass


class Infeasible(TranslationError):
    pass


class GramMismatch(TranslationError):
    pass


class DimensionMismatch(TranslationError):
    pass


def q_from_Q(Q: float) -> complex:
    """Real representative q of the class with 2 Re(q) / (1 + |q|^2) = Q.

    Uses the cancellation-free form q = Q / (1 + sqrt(1 - Q^2)); q = 0 for
    Q = 0 and q = +-1 at Q = +-1.
    """
    Q = float(Q)
    if not -1.0 <= Q <= 1.0:
        raise QOutOfRange(f"Q = {Q} outside [-1, 1]")
    return complex(Q / (1.0 + np.sqrt(max(0.0, 1.0 - Q * Q))))


def Q_from_q(q: complex) -> float:
    """Entanglement parameter Q = 2 Re(q) / (1 + |q|^2) in [-1, 1].

    Beyond the unit square q is scaled by s = max(|Re q|, |Im q|) first, so
    no |q| overflows; an infinite q gives NaN.
    """
    q = complex(q)
    s = max(abs(q.real), abs(q.imag))
    if s <= 1.0:
        return 2.0 * q.real / (1.0 + abs(q) ** 2)
    x, y = q.real / s, q.imag / s
    return 2.0 * x / (1.0 / s + s * (x * x + y * y))


def tablet_overlaps(emb: StateEmbedding, tablet: np.ndarray) -> np.ndarray:
    """Vector of overlaps a_i = <psi_i|psi_0> for a tablet in emb coordinates."""
    tablet = np.asarray(tablet, dtype=complex)
    if tablet.shape != (emb.dim,):
        raise DimensionMismatch(
            f"tablet has length {tablet.shape}, embedding dimension is {emb.dim}")
    return emb.vectors.conj().T @ tablet


def build_omega(emb: StateEmbedding, tablet: np.ndarray, q: complex) -> np.ndarray:
    """Frame states Omega_i, as the columns of a D x n matrix on the doubled
    space of an embedding (D = dim^2).

    The normalizer A_i = 1 + |q|^2 + 2 Re(q) |<psi_i|psi_0>|^2 is
    (1 + |q|^2) B_i; B_i at or below B_FLOOR raises DegenerateB.
    """
    q = complex(q)
    tablet = np.array(tablet, dtype=complex)
    a = tablet_overlaps(emb, tablet)
    A = 1.0 + abs(q) ** 2 + 2.0 * q.real * np.abs(a) ** 2
    B = A / (1.0 + abs(q) ** 2)
    if np.min(B) <= B_FLOOR:
        raise DegenerateB(f"min B_i = {np.min(B):.3e}")
    V = emb.vectors
    D, n = V.shape[0] ** 2, V.shape[1]
    # column i is kron(psi_i, tablet) + q kron(tablet, psi_i)
    psi_tab = (V[:, None, :] * tablet[None, :, None]).reshape(D, n)
    tab_psi = (tablet[:, None, None] * V[None, :, :]).reshape(D, n)
    return (psi_tab + q * tab_psi) / np.sqrt(A)


@dataclass
class TranslationWitness:
    """Everything needed to check one translation.

    Q             : entanglement parameter in [-1, 1]
    q             : a representative with 2 Re(q)/(1+|q|^2) = Q
    tablet        : unit tablet in embedding coordinates (optionally padded)
    output_gram   : Gram matrix of the output text
    unitary       : optional unitary on the doubled padded space; float64
                    when the text's frames and targets are exactly real,
                    complex128 otherwise and after loading from JSON;
                    `check_witness` bounds its unitarity defect from U and
                    the frames alone from D = SPAN_MIN_DIM on, and takes
                    the dense product below that or when the bound does
                    not clear
    residuals     : {'eq4': overlap residual, 'eq2': mapping residual}, as
                    the one check of a finished witness found them; empty
                    on a bare witness
    """

    Q: float
    q: complex
    tablet: np.ndarray
    output_gram: np.ndarray
    unitary: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)

    @property
    def embedding_dim(self) -> int:
        return int(len(self.tablet))


def _embedding_for_tablet(t: Text, tablet_len: int) -> StateEmbedding:
    """The embedding a tablet of this length lives in: the text's own, or
    that embedding with one zero coordinate appended (padded).  Both come
    from the one spectral embedding the text keeps."""
    base = t._embedding
    if tablet_len == base.dim:
        return base
    if tablet_len == base.dim + 1:
        return embed_text(t, pad_extra_dim=True)
    raise DimensionMismatch(
        f"tablet length {tablet_len} does not match embedding dimension "
        f"{base.dim} (or {base.dim} + 1)")


def overlap_residual(t: Text, Q: float, overlaps: np.ndarray,
                     output: np.ndarray) -> float:
    """Max modulus of z_ij + Q a_i conj(a_j) - sqrt(B_i B_j) y_ij z_ij over
    all pairs i < j.

    For an orthogonal pair the condition degenerates to |Q a_i conj(a_j)|:
    the output entry there is free, but the tablet still has to avoid
    overlapping both states at once.
    """
    a = np.asarray(overlaps, dtype=complex)
    B = 1.0 + Q * np.abs(a) ** 2
    lhs = t.gram + Q * np.outer(a, a.conj())
    rhs = np.sqrt(np.outer(B, B)) * output * t.gram
    resid = np.abs(lhs - rhs)
    iu = _upper_index(t.n)
    if iu[0].size == 0:
        return 0.0
    return float(np.max(resid[iu]))


def _forced_entries(z, zden, Q, A, B, i, j):
    """Output overlaps the overlap conditions force on the pairs (i, j),
    (z_ij + Q A_i conj(A_j)) / (sqrt(B_i B_j) zden_ij), broadcast, with the
    state last in A and B; zden is z with nonzero values where the caller
    fills in free entries.  Each pair gather is taken where the expression
    needs it, so an oracle batch never holds all four at once.  The route
    (through `forced_outputs`) and both oracle stages evaluate it."""
    y = z[i, j] + Q * (A[..., i] * A[..., j].conj())
    with np.errstate(divide="ignore", invalid="ignore"):
        y /= np.sqrt(B[..., i] * B[..., j]) * zden[i, j]
    return y


def forced_outputs(z: np.ndarray, zden: np.ndarray, Q: np.ndarray, A: np.ndarray,
                   B: np.ndarray) -> np.ndarray:
    """Output Grams forced by a batch of samples, one per row of Q, the
    overlaps A and B = 1 + Q |A|^2: `_forced_entries` on every pair, with
    a unit diagonal."""
    k = np.arange(z.shape[0])
    Y = _forced_entries(z, zden, Q[:, None, None], A, B, k[:, None], k[None, :])
    Y[:, k, k] = 1.0
    return Y


def witness_from_overlaps(t: Text, Q: float, overlaps: np.ndarray,
                          output: np.ndarray) -> TranslationWitness:
    """Assemble a bare witness from the overlap vector it must induce.

    The tablet is solved for inside the span of the states (minimal norm),
    so the Gram matrix must be nonsingular (else np.linalg.LinAlgError),
    with the remaining weight on one fresh padded coordinate.  The witness
    has no unitary and no residuals; `translate` and `realize_graph` attach
    both when they check it.
    """
    q = q_from_Q(Q)
    o = np.asarray(overlaps, dtype=complex)
    emb = embed_text(t, pad_extra_dim=True)
    span = emb.vectors[:-1, :]
    coeff = np.linalg.solve(t.gram, o)
    tau = span @ coeff
    s2 = float(np.real(np.vdot(o, coeff)))
    if s2 > 1.0 + 1e-9:
        raise Infeasible(f"overlap vector needs tablet norm {np.sqrt(s2):.6f} > 1")
    pad = np.sqrt(max(0.0, 1.0 - s2))
    tablet = np.concatenate([tau, [pad]])
    tablet = tablet / np.linalg.norm(tablet)
    a = tablet_overlaps(emb, tablet)
    B = 1.0 + Q * np.abs(a) ** 2
    if np.min(B) <= B_FLOOR:
        raise DegenerateB(f"min B_i = {np.min(B):.3e}")
    return TranslationWitness(Q=float(Q), q=q, tablet=tablet,
                              output_gram=validate_text(output).gram)


@dataclass(frozen=True)
class WitnessReport:
    """Verification summary: overlap residual r1, output validity r2,
    mapping residual r3, unitarity defect, and the overall pass flag."""

    r1: float
    r2_ok: bool
    r2_error: str | None
    r3: float | None
    unitarity: float | None
    passed: bool


def check_witness(t: Text, w: TranslationWitness) -> WitnessReport:
    """Verify a witness against its text.

    Pass requires r1 <= 1e-8, a valid output Gram, and, when a unitary is
    attached, mapping residual r3 <= 1e-8 and unitarity defect
    max |U^H U - I| <= 1e-10.  Internal consistency (unit tablet, q vs Q,
    B above its floor, a finite output Gram) is enforced with hard errors,
    which NaN and infinite entries fail too, before any other arithmetic.
    A U and frames whose imaginary parts are all exactly zero are taken
    as float64, so a real witness loaded as complex128 gives the bits of
    the in-memory check.

    The reported unitarity is one of two values, and either decides as the
    dense value would (`_span_defect`).  From D = SPAN_MIN_DIM on, it is
    the upper bound `_defect_bound` certifies for U = I + Eb W Eb^H + R,
    Eb the QR basis of the frames and targets, with W and the remainder R
    measured from U (`_span_bound`), in O(D^2 n), whenever that bound
    clears the gate with room for the dense kernel's rounding: a few
    1e-12 on a passing witness.  Otherwise it is the dense
    `_unitarity_defect`, one product: U^T U in D^3 / 2 multiply-adds on a
    float64 U, U^H U in 4 D^3 real ones on a complex U.

    r3 takes U Omega from the same pass over U whenever the span bound
    decides: as fl(K_n S), K = U Eb of the bound and S the frames' block
    of its QR factor, which moves r3 from the dense product's by at most
    the bound `_span_bound` states (about 3e-11 at D = 625).  Otherwise it
    is the dense U Omega, as below D = SPAN_MIN_DIM always.
    """
    return _check(t, w)


class _Frames(NamedTuple):
    """What a witness's unitary is built and checked on: the embedding of
    its tablet, and the frame states Omega and the targets chi (x) psi as
    columns, each float64 when its imaginary parts are all exactly zero."""

    emb: StateEmbedding
    omegas: np.ndarray
    targets: np.ndarray


def _frames(emb: StateEmbedding, tablet: np.ndarray, q: complex, out: Text) -> _Frames:
    return _Frames(emb, _real_if_exact(build_omega(emb, tablet, q)),
                   _real_if_exact(_product_targets(out, emb)))


def _witness_frames(t: Text, w: TranslationWitness) -> _Frames:
    tablet = np.asarray(w.tablet, dtype=complex)
    return _frames(_embedding_for_tablet(t, len(tablet)), tablet, w.q,
                   validate_text(w.output_gram))


def _check(t: Text, w: TranslationWitness, defect=None,
           frames: _Frames | None = None) -> WitnessReport:
    """`check_witness`, with the unitarity defect of the float64 or
    complex U taken as `defect(U)` when given, and on `frames`, the
    `_witness_frames(t, w)` a caller has just built, when given."""
    if not abs(Q_from_q(w.q) - w.Q) <= Q_CONSISTENCY_TOL:
        raise QOutOfRange(f"q = {w.q} does not represent Q = {w.Q}")
    tablet = np.asarray(w.tablet, dtype=complex)
    with np.errstate(over="ignore"):  # an overflowing norm is inf, not 1
        norm = np.linalg.norm(tablet)
    if not abs(norm - 1.0) <= TABLET_NORM_TOL:
        raise TranslationError(f"tablet norm {norm:.12f} is not 1")
    emb = _embedding_for_tablet(t, len(tablet)) if frames is None else frames.emb
    a = tablet_overlaps(emb, tablet)
    B = 1.0 + w.Q * np.abs(a) ** 2
    if not np.min(B) > B_FLOOR:
        raise DegenerateB(f"min B_i = {np.min(B):.3e}")
    output = np.asarray(w.output_gram, dtype=complex)
    if not np.isfinite(output).all():
        raise TranslationError("output Gram has a non-finite entry")
    r2_ok, r2_error = True, None
    if frames is None:
        try:
            out = validate_text(output)
        except TextError as exc:
            r2_ok, r2_error = False, f"{type(exc).__name__}: {exc}"
    r1 = overlap_residual(t, w.Q, a, output)
    r3 = None
    unitarity = None
    if w.unitary is not None and r2_ok:
        U = np.asarray(w.unitary)
        U = _real_if_exact(U.astype(np.result_type(U, float), copy=False))
        D = emb.vectors.shape[0] ** 2
        if U.shape != (D, D):
            raise DimensionMismatch(f"unitary has shape {U.shape}, expected {(D, D)}")
        if frames is None:
            frames = _frames(emb, tablet, w.q, out)
        unitarity, mapped = (defect(U), None) if defect else _span_defect(U, frames)
        if mapped is None:
            mapped = U @ frames.omegas
        r3 = float(np.max(np.linalg.norm(mapped - frames.targets, axis=0)))
    passed = bool(r1 <= EQ4_TOL and r2_ok and (
        r3 is None or (r3 <= EQ2_TOL and unitarity <= UNITARITY_TOL)))
    return WitnessReport(r1=r1, r2_ok=r2_ok, r2_error=r2_error,
                         r3=r3, unitarity=unitarity, passed=passed)


def _unitarity_defect(U: np.ndarray) -> float:
    """max |U^H U - I| over the entries of a float64 or complex D x D
    matrix U, from one product: U^T U for a float64 U (BLAS syrk, D^3 / 2
    multiply-adds, no copy of U, the modulus taken in place), U^H U for a
    complex one (4 D^3 real multiply-adds).

    Rounding, u the unit roundoff and gamma_k = k u / (1 - k u), in any
    summation order: the real and the imaginary part of entry (i, j) are
    each a sum of at most 2D real products, the terms of a dot product of
    the real 2D-vectors (Re u_i, Im u_i) and (Re u_j, Im u_j), the halves
    of the latter swapped for the imaginary part.  By Cauchy-Schwarz each
    errs by at most gamma_2D |u_i| |u_j|, and the entry by at most
    sqrt(2) gamma_2D |u_i| |u_j|.  The value returned is thus within
    sqrt(2) gamma_2D max_j |u_j|^2 (about 2e-13 at D = 625 for a unitary),
    plus a few roundings of the result, of the exact defect.  The modulus
    is numpy's abs, so finite input warns only where the product itself
    overflows.
    """
    G = (U.conj().T if np.iscomplexobj(U) else U.T) @ U
    G[np.diag_indices(len(U))] -= 1.0
    return float(np.max(np.abs(G, out=None if np.iscomplexobj(G) else G)))


def _product_targets(out_text: Text, emb: StateEmbedding) -> np.ndarray:
    """Columns chi_i (x) psi_i in the doubled space of `emb`."""
    d, n = emb.vectors.shape
    y_emb = embed_text(out_text)
    if y_emb.dim > d:
        raise DimensionMismatch(
            f"output text needs dimension {y_emb.dim}, language has {d}")
    chi = np.zeros((d, n), dtype=complex)
    chi[:y_emb.dim, :] = y_emb.vectors
    return (chi[:, None, :] * emb.vectors[None, :, :]).reshape(d * d, n)


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """The contiguous real part of a complex array whose imaginary parts are
    all exactly zero, an exact conversion; any other array as it is."""
    if np.iscomplexobj(a) and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


def _orthonormal_polar(W: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(W, full_matrices=False)
    return u @ vh


def synthesize_unitary(t: Text, w: TranslationWitness,
                       frames: _Frames | None = None) -> np.ndarray:
    """Unitary mapping each frame state Omega_i onto chi_i (x) psi_i.

    Exists iff the two families share a Gram matrix (checked at 1e-8).
    Both frames are orthonormalized with the same spectral coefficients, to
    P and Qf (D x k).  The unitary is the identity outside span[P, Qf]:
    with E (D x m, m = min(D, 2k)) the reduced QR basis of [P, Qf], and
    p = E^H P, q = E^H Qf each completed in C^m by the last m - k columns
    of a complete QR, U = I + E (V - I) E^H with V = [q cq][p cp]^H.  That
    costs O(D^2 k), and the result is deterministic.  Frames and targets
    whose imaginary parts are all exactly zero are taken as float64, so a
    real text runs every factorization real, completes in R^m, and gets a
    float64 U.  The unitary is not checked here, but `_defect_bound`
    bounds its defect from E and W, with the remainder of forming U taken
    a priori, in O(D m^2); `synth._finish` takes that bound in place of
    any other when it clears the gate (`_certified_defect`).
    `check_witness` trusts no factor: it takes the same bound with the
    remainder measured from U and the frames alone (`_span_defect`).
    `frames`, when given, are `_witness_frames(t, w)`, built by a caller
    that checks U on them too.
    """
    if frames is None:
        frames = _witness_frames(t, w)
    return _factored_unitary(*_unitary_factors(frames))


def _unitary_factors(frames: _Frames) -> tuple[np.ndarray, np.ndarray]:
    """E and W = V - I of `synthesize_unitary`'s U = I + E W E^H."""
    A, Bm = frames.omegas, frames.targets
    Ga = A.conj().T @ A
    Gb = Bm.conj().T @ Bm
    mismatch = float(np.max(np.abs(Ga - Gb)))
    if mismatch > EQ4_TOL:
        raise GramMismatch(f"frame Grams differ by {mismatch:.3e}")
    lam, vec = np.linalg.eigh((Ga + Ga.conj().T) / 2.0)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vec = vec[:, order]
    keep = lam > max(lam[0], 1.0) * FRAME_RANK_TOL
    coeff = vec[:, keep] / np.sqrt(lam[keep])
    P = _orthonormal_polar(A @ coeff)
    Qf = _orthonormal_polar(Bm @ coeff)
    E = np.linalg.qr(np.hstack([P, Qf]))[0]
    Eh = E.conj().T
    p, q = Eh @ P, Eh @ Qf
    k = p.shape[1]
    cp = np.linalg.qr(p, mode="complete")[0][:, k:]
    cq = np.linalg.qr(q, mode="complete")[0][:, k:]
    V = np.hstack([q, cq]) @ np.hstack([p, cp]).conj().T
    V[np.diag_indices(len(V))] -= 1.0
    return E, V


# The last U that `_factored_unitary` formed, held by a weak reference, and
# the bound `_defect_bound` certified for it.  `_certified_defect` gives the
# bound back for that very array alone, so an entry another call left
# behind costs `check_witness`'s own path, never a wrong answer.
_certificate = (lambda: None, np.inf)


def _factored_unitary(E: np.ndarray, W: np.ndarray) -> np.ndarray:
    """U = I + E W E^H, formed as fl(I + fl(fl(E W) E^H)), with its
    `_defect_bound` kept in `_certificate`.  The remainder is known a
    priori: adding I rounds entry (j, j) alone, by at most gamma_1 |u_jj|."""
    global _certificate
    T = E @ W
    U = T @ E.conj().T
    U[np.diag_indices(len(U))] += 1.0
    r = _gamma(1) * np.max(np.abs(np.diagonal(U)))
    _certificate = (weakref.ref(U), _defect_bound(E, W, T, r))
    return U


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53 the unit roundoff."""
    return k * _ROUNDOFF / (1.0 - k * _ROUNDOFF)


def _defect_bound(E: np.ndarray, W: np.ndarray, T: np.ndarray, r: float) -> float:
    """An upper bound on max |U^H U - I| of any D x D matrix U each of whose
    columns lies within r of that of fl(T E^H) + I, T = fl(E W), with E of
    size D x m and W of size m x m, from O(D m^2) work and no D x D
    product.  Nothing is assumed of the arrays E and W.

    Exact part.  With V = I + W and G = E^H E, the exact
    U~ = I + E W E^H has
        U~^H U~ - I = E (V^H V - I) E^H + E W^H (G - I) W E^H,
    so ||U~^H U~ - I||_2 <= eU = e2 (eV + w2 eG), where each factor
    bounds a 2-norm through ||X||_2 <= ||X||_F on m x m data, c_k the
    rounding constant of a product with inner dimension k (below):
    * ||G - I||_2 <= eG = ||fl(G) - I||_F + c_G ||E||_F^2, with fl(G) and
      c_G from `_blocked_gram`, whose error matrix has Frobenius norm at
      most c_G ||E||_F^2 (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., §3.5);
    * ||V^H V - I||_2 <= eV = ||fl(fl(W^H W) + W + W^H)||_F
      + c_(m+6) ||W||_F (||W||_F + 1): the product errs by c_m |w_i| |w_j|,
      the two additions by at most 3u (|w_i| |w_j| + |W_ij| + |W_ji|)
      together, and c_(m+6) >= c_m + 6u;
    * ||E||_2^2 = ||G||_2 <= e2 = 1 + eG;
    * ||W||_2^2 <= w2 = min(||W||_F^2, (1 + sqrt(1 + eV))^2), since
      ||V||_2^2 <= 1 + eV.
    Remainder.  R = U - U~ is U - fl(T E^H) - I, within r by assumption,
    plus fl(T E^H) - E W E^H: T errs by at most c_m |E| |W| entrywise and
    T E^H by c_m |T| |E^H|, so column j of the latter is a matrix times
    column j of E^H, of norm at most ||E||_2 <= sqrt(e2), and as
    || |A| ||_2 <= ||A||_F every column of R has norm at most
        d = r + sqrt(e2) c_m (||E||_F ||W||_F + ||T||_F).
    Every column of U~ has norm at most ||U~||_2 <= sqrt(1 + eU), and
    U^H U - I = (U~^H U~ - I) + U~^H R + R^H U~ + R^H R, so each entry of
    U^H U - I is at most eU + 2 sqrt(1 + eU) d + d^2.

    c_k = gamma_k for float64 factors.  A complex BLAS product may sum the
    real and the imaginary part of an entry over 2k real products each,
    so c_k = sqrt(2) gamma_2k when E or W is complex.  No subtraction
    enters the bound, so the rounding of its own evaluation is relative:
    each Frobenius norm, of at most 2 D m squares here and 2^27 in the
    caller's r, is within gamma_(2^28+2) of its exact value, no product in
    the formula holds more than eight norms, and the factor 1 + 2^-20
    covers them and the formula's own few dozen roundings while
    D m <= 2^27; a larger pair gets no bound (inf).  NaN gives NaN, which
    clears no gate.
    """
    D, m = E.shape
    if D * m > 1 << 27:
        return np.inf
    complex_ = np.iscomplexobj(T)

    def c(k):
        return np.sqrt(2.0) * _gamma(2 * k) if complex_ else _gamma(k)

    G, cG = _blocked_gram(E, c)
    G[np.diag_indices(m)] -= 1.0
    X = W.conj().T @ W
    X += W
    X += W.conj().T
    e, w = np.linalg.norm(E), np.linalg.norm(W)
    eG = np.linalg.norm(G) + cG * e * e
    eV = np.linalg.norm(X) + c(m + 6) * w * (w + 1.0)
    e2 = 1.0 + eG
    w2 = min(w * w, (1.0 + np.sqrt(1.0 + eV)) ** 2)
    eU = e2 * (eV + w2 * eG)
    d = r + np.sqrt(e2) * c(m) * (e * w + np.linalg.norm(T))
    return float((eU + 2.0 * np.sqrt(1.0 + eU) * d + d * d) * (1.0 + 2.0 ** -20))


def _blocked_gram(Z: np.ndarray, c) -> tuple[np.ndarray, float]:
    """Z^H Z of a D x k matrix, summed over about sqrt(D) row blocks of at
    most b rows each, and c_G with |fl(Z^H Z) - Z^H Z| <= c_G |Z|^H |Z|.

    Each block product errs by at most c(b) |Z_c|^H |Z_c| entrywise, c(b)
    the rounding constant of a product with inner dimension b, and adding
    the nb block products errs by at most gamma_nb times the sum of their
    moduli, each at most (1 + c(b)) |Z_c|^H |Z_c|.  So
    c_G = c(b) + gamma_nb (1 + c(b)), about 2 sqrt(D) u against the D u
    of one product over all D rows.
    """
    D = len(Z)
    b = -(-D // max(1, int(np.sqrt(D))))
    G = Z[:b].conj().T @ Z[:b]
    for i in range(b, D, b):
        G += Z[i:i + b].conj().T @ Z[i:i + b]
    nb = -(-D // b)
    return G, c(b) + _gamma(nb) * (1.0 + c(b))


def _clears(bound: float, D: int) -> bool:
    """Whether a bound b on the defect of a D x D matrix decides as
    `_unitarity_defect` would.

    `_unitarity_defect` returns the exact defect of U to within
    sqrt(2) gamma_2D max_j |u_j|^2 plus a few roundings of the result, and
    max_j |u_j|^2 <= 1 + b for an exact defect at most b.  So when
    b + 2 sqrt(2) gamma_2D (1 + b) <= UNITARITY_TOL, the factor 2 covering
    those roundings and this comparison's own, the dense value passes the
    gate too, and taking b changes no decision.  NaN clears nothing.
    """
    return bool(bound + 2.0 * np.sqrt(2.0) * _gamma(2 * D) * (1.0 + bound) <= UNITARITY_TOL)


def _certified_defect(U: np.ndarray, frames: _Frames) -> float:
    """The bound `_defect_bound` certified for U, when it `_clears`; else
    the defect `check_witness` takes (`_span_defect`)."""
    ref, bound = _certificate
    if ref() is U and _clears(bound, len(U)):
        return bound
    return _span_defect(U, frames)[0]


# Below this doubled-space dimension the dense product costs less than
# `_span_bound` (one BLAS thread: equal near D = 350 on a float64 U)
SPAN_MIN_DIM = 350


def _span_defect(U: np.ndarray, frames: _Frames) -> tuple[float, np.ndarray | None]:
    """The defect of U as `check_witness` reports it, and U Omega when the
    span bound decides, else None.  The defect is `_span_bound` of U on
    the n frames when D >= SPAN_MIN_DIM and D >= 16 n, where its two
    D x 2n products cost at most half the dense D^3 / 2, and the bound
    `_clears`; else the dense `_unitarity_defect(U)`.  The bound is
    `_defect_bound`'s with the remainder measured from U, so a U that is
    not the identity plus a term of rank 2n, or that holds NaN or an
    infinite entry, gets no finite bound that clears, and the dense
    product decides it.  When the bound decides, U Omega is fl(K_n S) from
    its own K = U Eb, D n^2 multiply-adds in place of D^2 n, and r3 moves
    by at most the bound `_span_bound` gives against the dense product."""
    D, n = len(U), frames.omegas.shape[1]
    if D >= max(SPAN_MIN_DIM, 16 * n):
        with np.errstate(all="ignore"):
            bound, K, Rb = _span_bound(U, frames.omegas, frames.targets)
        if _clears(bound, D):
            return bound, K[:, :n] @ Rb[:n, :n]
    return _unitarity_defect(U), None


def _span_bound(U: np.ndarray, omegas: np.ndarray,
                targets: np.ndarray) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """An upper bound on max |U^H U - I| of any D x D matrix U, read from U
    and the frames alone, with O(D^2 m) work, m = 2n, and no D x D
    product, together with K = fl(U Eb) and the factor Rb of the QR below.
    It trusts nothing of how U was made.

    It is `_defect_bound` of E = Eb, the Householder QR basis of
    [Omega | chi (x) psi] = Eb Rb (D x m), and W = fl(Eb^H fl(K - Eb)), with
    the remainder measured: R^ = fl(fl(U - fl(T Eb^H)) - I), T = fl(Eb W).
    With F = fl(U - fl(T Eb^H)), |F - (U - fl(T Eb^H))| <= gamma_1 |F|,
    |F_jj| <= 1 + (1 + gamma_1) |R^_jj| and subtracting I errs by
    gamma_1 |R^_jj|, so every column of U - fl(T Eb^H) - I has norm at most
    r = (1 + gamma_2) ||R^||_F + gamma_1.  The bound is small when U is the
    identity plus a term inside span Eb, as a translation's unitary is.
    A U with 2 D^2 > 2^27 gets no bound (inf), and no K and Rb (None),
    which keeps ||R^||_F inside `_defect_bound`'s rounding model.
    Underflow is outside that model; an overflow gives inf or NaN, which
    clears no gate.

    r3 from K.  Rb is upper triangular, so Omega = E_n S up to the QR's
    rounding, E_n the first n columns of Eb and S = Rb[:n, :n], and
    `check_witness` takes U Omega as fl(K_n S), K_n the first n columns of
    K.  Its r3' = max_i ||fl(K_n s_i) - t_i|| then lies within
        ||U||_F (delta + c_D (nu + ||E_n||_F sigma)) + c_n ||K_n||_F sigma
        + gamma_2D (r3 + r3')
    of the dense r3 = max_i ||fl(U omega_i) - t_i||, with t_i = chi_i (x)
    psi_i, nu = max_i ||omega_i|| (1 up to rounding), sigma = max_i ||s_i||,
    c_k as in `_defect_bound`, and delta = max_i ||E_n s_i - omega_i||, the
    QR's backward error on the frames.  Higham (Accuracy and Stability of
    Numerical Algorithms, 2nd ed., §19.3: Theorem 19.4 and the bound on
    the explicitly formed factor) puts delta at most gamma~_(Dm)
    (nu + sqrt(m) sigma), a small multiple of D m^(3/2) u.  The terms:
    fl(U omega_i) errs by at most c_D ||U||_F nu; K_n by c_D |U| |E_n|,
    which S carries to c_D ||U||_F ||E_n||_F sigma; the product with S
    adds c_n ||K_n||_F sigma; U (E_n s_i - omega_i) has norm at most
    ||U||_2 delta; and the subtraction and the norm round each r3 by a
    relative gamma_2D.  About 3e-11 at D = 625, far below EQ2_TOL.
    """
    D = len(U)
    if 2 * D * D > 1 << 27:
        return np.inf, None, None
    Eb, Rb = np.linalg.qr(np.hstack([omegas, targets]))
    K = U @ Eb
    W = Eb.conj().T @ (K - Eb)
    T = Eb @ W
    R = T @ Eb.conj().T
    np.subtract(U, R, out=R)
    R[np.diag_indices(D)] -= 1.0
    r = (1.0 + _gamma(2)) * np.linalg.norm(R) + _gamma(1)
    return _defect_bound(Eb, W, T, r), K, Rb


def restrict_witness(t: Text, w: TranslationWitness, indices) -> TranslationWitness:
    """Witness for the subtext on `indices`, inherited from a parent witness.

    Keeps Q, restricts the overlaps and the output Gram, and rebuilds the
    tablet inside the subtext's own embedding.  The witness is bare, as
    `witness_from_overlaps` returns it.
    """
    idx = list(indices)
    emb = _embedding_for_tablet(t, len(w.tablet))
    a = tablet_overlaps(emb, np.asarray(w.tablet, dtype=complex))
    sub = subtext(t, idx)
    out_sub = np.asarray(w.output_gram, dtype=complex)[np.ix_(idx, idx)]
    return witness_from_overlaps(sub, w.Q, a[idx], out_sub)

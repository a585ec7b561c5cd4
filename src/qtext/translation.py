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

from dataclasses import dataclass, field

import numpy as np

from .texts import (
    Text,
    StateEmbedding,
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
NORMALIZER_FLOOR = 1e-12
FRAME_RANK_TOL = 1e-12


class TranslationError(ValueError):
    pass


class QOutOfRange(TranslationError):
    pass


class DegenerateNormalizer(TranslationError):
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
    """Entanglement parameter Q = 2 Re(q) / (1 + |q|^2) in [-1, 1]."""
    q = complex(q)
    return 2.0 * q.real / (1.0 + abs(q) ** 2)


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

    A_i = 1 + |q|^2 + 2 Re(q) |<psi_i|psi_0>|^2 must stay above 1e-12.
    """
    q = complex(q)
    tablet = np.array(tablet, dtype=complex)
    a = tablet_overlaps(emb, tablet)
    A = 1.0 + abs(q) ** 2 + 2.0 * q.real * np.abs(a) ** 2
    if np.min(A) <= NORMALIZER_FLOOR:
        raise DegenerateNormalizer(f"min A_i = {np.min(A):.3e}")
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
    unitary       : optional unitary on the doubled padded space
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
    that embedding with one zero coordinate appended (padded)."""
    base = embed_text(t)
    if tablet_len == base.dim:
        return base
    if tablet_len == base.dim + 1:
        vectors = np.vstack([base.vectors, np.zeros((1, t.n), dtype=complex)])
        return StateEmbedding(dim=tablet_len, vectors=vectors, padded=True)
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
    iu = np.triu_indices(t.n, k=1)
    if iu[0].size == 0:
        return 0.0
    return float(np.max(resid[iu]))


def forced_outputs(z: np.ndarray, zden: np.ndarray, Q: np.ndarray, A: np.ndarray,
                   B: np.ndarray) -> np.ndarray:
    """Output Grams forced by a batch of samples, one per row of Q, the
    overlaps A and B = 1 + Q |A|^2: Y[s, i, j] = (z_ij + Q_s A_si
    conj(A_sj)) / (sqrt(B_si B_sj) zden_ij), with a unit diagonal.  zden is
    z with nonzero values where the caller fills in free entries itself."""
    Y = z[None, :, :] + Q[:, None, None] * (A[:, :, None] * A.conj()[:, None, :])
    den = np.sqrt(B[:, :, None] * B[:, None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        Y /= den * zden[None, :, :]
    diag = np.arange(z.shape[0])
    Y[:, diag, diag] = 1.0
    return Y


def witness_from_overlaps(t: Text, Q: float, overlaps: np.ndarray,
                          output: np.ndarray) -> TranslationWitness:
    """Assemble a bare witness from the overlap vector it must induce.

    The tablet is reconstructed inside the span of the states (minimal
    norm), with the remaining weight on one fresh padded coordinate.  The
    witness has no unitary and no residuals; `translate` and
    `realize_graph` attach both when they check it.
    """
    if not -1.0 <= float(Q) <= 1.0:
        raise QOutOfRange(f"Q = {Q} outside [-1, 1]")
    o = np.asarray(overlaps, dtype=complex)
    emb = embed_text(t, pad_extra_dim=True)
    span = emb.vectors[:-1, :]
    gram = t.gram
    try:
        coeff = np.linalg.solve(gram, o)
    except np.linalg.LinAlgError:
        coeff = np.linalg.lstsq(gram, o, rcond=None)[0]
    tau = span @ coeff
    s2 = float(np.real(np.vdot(o, coeff)))
    if s2 > 1.0 + 1e-9:
        raise Infeasible(f"overlap vector needs tablet norm {np.sqrt(s2):.6f} > 1")
    pad = np.sqrt(max(0.0, 1.0 - s2))
    tablet = np.concatenate([tau, [pad]])
    norm = np.linalg.norm(tablet)
    if norm <= 0:
        raise Infeasible("overlap vector gives a vanishing tablet")
    tablet = tablet / norm
    a = tablet_overlaps(emb, tablet)
    B = 1.0 + Q * np.abs(a) ** 2
    if np.min(B) <= B_FLOOR:
        raise DegenerateB(f"min B_i = {np.min(B):.3e}")
    return TranslationWitness(Q=float(Q), q=q_from_Q(Q), tablet=tablet,
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
    max |U^H U - I| <= 1e-10.  Internal consistency (unit tablet, q vs Q)
    is enforced with hard errors.  The defect is computed in real
    arithmetic by `_unitarity_defect`, within rounding of the complex
    product's value.
    """
    if abs(Q_from_q(w.q) - w.Q) > Q_CONSISTENCY_TOL:
        raise QOutOfRange(f"q = {w.q} does not represent Q = {w.Q}")
    tablet = np.asarray(w.tablet, dtype=complex)
    norm = np.linalg.norm(tablet)
    if abs(norm - 1.0) > TABLET_NORM_TOL:
        raise TranslationError(f"tablet norm {norm:.12f} is not 1")
    emb = _embedding_for_tablet(t, len(tablet))
    a = tablet_overlaps(emb, tablet)
    B = 1.0 + w.Q * np.abs(a) ** 2
    if np.min(B) <= B_FLOOR:
        raise DegenerateB(f"min B_i = {np.min(B):.3e}")
    try:
        out = validate_text(w.output_gram)
        r2_ok, r2_error = True, None
    except TextError as exc:
        r2_ok, r2_error = False, f"{type(exc).__name__}: {exc}"
    r1 = overlap_residual(t, w.Q, a, np.asarray(w.output_gram, dtype=complex))
    r3 = None
    unitarity = None
    if w.unitary is not None and r2_ok:
        U = np.asarray(w.unitary, dtype=complex)
        D = emb.vectors.shape[0] ** 2
        if U.shape != (D, D):
            raise DimensionMismatch(f"unitary has shape {U.shape}, expected {(D, D)}")
        unitarity = _unitarity_defect(U)
        omegas = build_omega(emb, tablet, w.q)
        targets = _product_targets(out, emb)
        r3 = float(np.max(np.linalg.norm(U @ omegas - targets, axis=0)))
    passed = bool(r1 <= EQ4_TOL and r2_ok and (
        r3 is None or (r3 <= EQ2_TOL and unitarity <= UNITARITY_TOL)))
    return WitnessReport(r1=r1, r2_ok=r2_ok, r2_error=r2_error,
                         r3=r3, unitarity=unitarity, passed=passed)


def _unitarity_defect(U: np.ndarray) -> float:
    """max |U^H U - I| over the entries of a complex D x D matrix U.

    With U = X + iY, Re(U^H U) = X^T X + Y^T Y is one symmetric product
    R^T R of the stacked R = [X; Y] (BLAS syrk), and Im(U^H U) = M - M^T
    with M = X^T Y, one real product.  When Y is exactly zero, so is the
    imaginary part, and only X^T X runs: D^3/2 multiply-adds against the
    4 D^3 of the complex product.  At most 4 D^2 floats are held at once,
    R, G and M or G, M and G + iM: R is freed before M - M^T takes its
    temporary copy.

    Rounding, u the unit roundoff and gamma_k = k u / (1 - k u), in any
    summation order: entry (i, j) of R^T R is a dot product of the stacked
    real columns r_i, r_j of length 2D, so it errs by at most
    gamma_2D sum_k |r_ki r_kj| <= gamma_2D |u_i| |u_j| by Cauchy-Schwarz,
    as |r_i| = |u_i|.  The two sums of the imaginary part run over the
    terms |x_ki y_kj| and |y_ki x_kj|, a dot product of |r_i| with |r_j|
    with its halves swapped, so with the subtraction they err by at most
    gamma_(D+1) |u_i| |u_j|.  The value returned is thus within
    sqrt(2) gamma_2D max_j |u_j|^2 (about 2e-13 at D = 625 for a unitary),
    plus a few roundings of the result, of the exact defect.  The complex
    product sums the same terms and obeys the same bound.

    The modulus is numpy's abs, of G or of the complex G + iM, so finite
    input warns only where a product itself overflows.
    """
    D = U.shape[0]
    if not U.imag.any():
        X = U.real.copy()
        G = X.T @ X
        G[np.diag_indices(D)] -= 1.0
        return float(np.max(np.abs(G, out=G)))
    R = np.empty((2 * D, D))
    R[:D] = U.real
    R[D:] = U.imag
    G = R.T @ R
    M = R[:D].T @ R[D:]
    del R
    M -= M.T
    G[np.diag_indices(D)] -= 1.0
    Z = np.empty((D, D), dtype=complex)
    Z.real = G
    Z.imag = M
    return float(np.max(np.abs(Z, out=G)))


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


def _orthonormal_polar(W: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(W, full_matrices=False)
    return u @ vh


def synthesize_unitary(t: Text, w: TranslationWitness) -> np.ndarray:
    """Unitary mapping each frame state Omega_i onto chi_i (x) psi_i.

    Exists iff the two families share a Gram matrix (checked at 1e-8).
    Both frames are orthonormalized with the same spectral coefficients, to
    P and Qf (D x k).  The unitary is the identity outside span[P, Qf]:
    with E (D x m, m = min(D, 2k)) the reduced QR basis of [P, Qf], and
    p = E^H P, q = E^H Qf each completed in C^m by the last m - k columns
    of a complete QR, U = I + E (V - I) E^H with V = [q cq][p cp]^H.  That
    costs O(D^2 k), and the result is deterministic.  The unitary is not
    checked here; that is `check_witness`'s job.
    """
    tablet = np.asarray(w.tablet, dtype=complex)
    emb = _embedding_for_tablet(t, len(tablet))
    A = build_omega(emb, tablet, w.q)
    out = validate_text(w.output_gram)
    Bm = _product_targets(out, emb)
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
    U = (E @ V) @ Eh
    U[np.diag_indices(len(U))] += 1.0
    return U


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

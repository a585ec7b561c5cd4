"""Seeded text generators and a sampling feasibility oracle.

The oracle knows nothing about the decision theory: it samples the
parameter Q, random tablets, and random values for the free output
overlaps, then accepts a sample iff the forced output Gram completes to a
valid text and the overlap conditions hold.  It can certify feasibility,
never infeasibility.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .texts import (DISTINCT_TOL, Text, _upper_index, embed_text, null_index_set, psd_tol,
                    validate_text)
from .graphs import SimpleGraph, _adjacency, graph_of_text
from .translation import (B_FLOOR, EQ4_TOL, MODULUS_CAP, TranslationWitness,
                          _forced_entries, forced_outputs, overlap_residual, q_from_Q)
from .classify import hadamard_inverse_signature


class InfeasibleSpec(ValueError):
    pass


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one generated text.

    mode  : 'random_efficient' | 'uniform' | 'from_graph' | 'untranslatable4'
    n     : number of states (ignored by untranslatable4, fixed at 4)
    seed  : RNG seed; identical specs generate identical texts
    z     : common overlap for 'uniform'
    graph : overlap graph for 'from_graph'
    """

    mode: str
    n: int = 3
    seed: int = 0
    z: float | None = None
    graph: SimpleGraph | None = None


def _row_dominant(n: int, rng: np.random.Generator,
                  mask: np.ndarray | None = None) -> np.ndarray:
    """Random Hermitian unit-diagonal matrix with row sums of off-diagonal
    moduli at most 0.9, hence positive definite; `mask` selects which
    off-diagonal entries may be nonzero."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw = (raw + raw.conj().T) / 2.0
    np.fill_diagonal(raw, 0.0)
    # keep magnitudes visibly away from the orthogonality tolerance
    mags = np.abs(raw)
    with np.errstate(invalid="ignore", divide="ignore"):
        raw = np.where(mags > 0, raw * (0.2 + 0.8 * np.tanh(mags)) / mags, 0.0)
    if mask is not None:
        raw = raw * mask
    rowsum = np.max(np.abs(raw).sum(axis=1))
    if rowsum > 0:
        raw = raw * (0.9 / max(rowsum, 0.9 / 0.95))
    gram = np.eye(n, dtype=complex) + raw
    return gram


def gen_text(spec: GenSpec) -> Text:
    """Generate a validated text from a spec; deterministic per (spec, seed)."""
    rng = np.random.default_rng([spec.seed, 31415])
    if spec.mode == "random_efficient":
        if spec.n < 1:
            raise InfeasibleSpec("n must be positive")
        return validate_text(_row_dominant(spec.n, rng))
    if spec.mode == "uniform":
        n = spec.n
        if n < 2:
            raise InfeasibleSpec(f"uniform mode needs n >= 2, got {n}")
        if spec.z is None:
            # keep away from the PSD boundary and from zero
            lo = -1.0 / (n - 1) + 0.02
            z = 0.0
            while abs(z) < 0.02:
                z = float(rng.uniform(lo, 0.95))
        else:
            z = float(spec.z)
        if not (-1.0 / (n - 1) < z < 1.0) or z == 0.0:
            raise InfeasibleSpec(
                f"uniform overlap must lie in (-1/{n - 1}, 1) minus 0, got {z}")
        gram = np.full((n, n), complex(z))
        np.fill_diagonal(gram, 1.0)
        return validate_text(gram)
    if spec.mode == "from_graph":
        if spec.graph is None:
            raise InfeasibleSpec("from_graph mode needs a graph")
        g = spec.graph
        t = validate_text(_row_dominant(g.n, rng, mask=_adjacency(g)))
        if graph_of_text(t) != g:
            raise InfeasibleSpec("internal: generated text has the wrong graph")
        return t
    if spec.mode == "untranslatable4":
        for k in range(10000):
            sub = np.random.default_rng([spec.seed, k, 27182])
            t = validate_text(_row_dominant(4, sub))
            sig = hadamard_inverse_signature(t)
            if (sig.n_pos, sig.n_neg, sig.n_zero) == (2, 2, 0):
                return t
        raise InfeasibleSpec(
            "no signature (2,2,0) text found within 10000 rejection samples")
    raise InfeasibleSpec(f"unknown mode {spec.mode!r}")


@dataclass
class OracleReport:
    found: bool
    best_penalty: float
    samples: int
    seed: int
    witness: TranslationWitness | None = None
    accepted_Q: list[float] | None = None


class _PruneConsts(NamedTuple):
    """What `_skipped` reads of a text; see `_prune_consts`."""

    n: int
    iu: tuple[np.ndarray, np.ndarray]  # _upper_index(n)
    zmin: float                        # smallest |z_ij| over non-orthogonal pairs
    tol: float                         # psd_tol(n)
    pairs: np.ndarray | None           # conj(x_i) x_j in triangle order, or None
    xx: float                          # x^H x


def _prune_consts(n: int, zmin: float, x: np.ndarray | None = None) -> _PruneConsts:
    """The constants `_skipped` needs for an n-text, made once per oracle
    call rather than per batch; x is the vector of Rayleigh's bound, or None
    for no such bound."""
    iu = _upper_index(n)
    if x is None:
        return _PruneConsts(n, iu, zmin, psd_tol(n), None, 0.0)
    return _PruneConsts(n, iu, zmin, psd_tol(n), x[iu[0]].conj() * x[iu[1]],
                        float(np.sum(np.abs(x) ** 2)))


def _cholesky_fails(yt: np.ndarray, diag: np.ndarray, n: int,
                    iu: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Mask of the rows whose Cholesky factorization in floats meets a
    pivot <= 0; row i factors the Hermitian n x n matrix with upper triangle
    yt[i] (in `np.triu_indices` order) and every diagonal entry diag[i].
    A row with a NaN or infinite diagonal never counts as failed: its
    pivots are all NaN or infinite."""
    # rows last, so that each step runs along the batch; pivot k stays on
    # the diagonal once step k has read it, so a failed one is still there
    H = np.zeros((n, n, len(diag)), dtype=complex)
    H[iu[0], iu[1]] = yt.T
    k_ = np.arange(n)
    H[k_, k_] = diag
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(n - 1):
            r = H[k, k + 1:] / np.sqrt(H[k, k].real)
            H[k + 1:, k + 1:] -= r.conj()[:, None] * r
    return (H[k_, k_].real <= 0.0).any(axis=0)


def _skipped(yt: np.ndarray, Bmin: np.ndarray, best: float,
             nullok: np.ndarray | None, nullpen: np.ndarray | None,
             pc: _PruneConsts) -> np.ndarray:
    """Mask of the samples of a batch that can neither be accepted nor
    lower `best`, read off the upper triangle alone.

    yt      : (m, T) upper triangles of the output Grams, free values placed,
              in `np.triu_indices` order; the forced entries are
              `_forced_entries` on the triangle, which may differ from its
              evaluation on the full Y in the last bits
    Bmin    : (m,) smallest B = 1 + Q |a_i|^2 of each sample
    nullok, nullpen : the null-residual test and term, None without
              orthogonal pairs
    pc      : the text's constants; with a vector x, tier 1 uses Rayleigh's
              bound lambda_min(Y) <= x^H Y x / x^H x

    A sample with B_min <= B_FLOOR is skipped.  Any other one is skipped
    when it provably fails an acceptance test and a lower bound on its
    penalty is at least `best`.  Tier 1 bounds every sample at O(T) cost;
    tier 2 factors the samples tier 1 keeps.  Margins, u the unit roundoff:

    - A forced entry y_ij = (z_ij + Q a_i conj(a_j)) / (sqrt(B_i B_j) z_ij)
      has |Q a_i a_j| <= 1, so |y_ij| and the terms it is made of are at
      most w = (1 + 1/zmin) / B_min.  One evaluation errs by at most
      20 u w: 5 u w in the numerator (a multiply with or without FMA, a
      scaling, an add), 3 u |y| in the denominator and 12 u |y| in Smith's
      division.  So two evaluations, of (i, j) or of (j, i) conjugated,
      differ by at most eps = 64 u w.
    - Each |y| here is then within eta = 2 eps + 4 u (max|y| + 1) of the
      one the full Y gives, after the rounding of abs and of the shifted
      thresholds.
    - `eigvalsh` reads the lower triangle of the full Y: call that
      Hermitian matrix H, and Y_t the one of `yt`.  Every norm below is at
      most R = 1 + (n - 1)(max|y| + eps) (row sums).  The computed
      lambda_min(H) exceeds r = fl(x^H Y_t x) by at most the sum mu of
        16 n u R                 eigvalsh's backward error p(n) u ||H||;
                                 LAPACK promises a modest p(n), and 16 n
                                 is generous for Householder reduction
        (n - 1) eps              ||H - Y_t|| (Weyl's inequality)
        R (|1 - x^H x| + 2 n u)  Rayleigh's quotient for x not unit
        3 (T + n + 4) u R        rounding of r: x^H x, T = n(n - 1)/2
                                 complex products and their sum
      and these constants exceed the rounding of mu itself.
    - Rounding is monotone, so r + mu < -psd_tol(n) in floats proves
      lambda_min < -psd_tol(n), and max(0, -r - mu)^2 is at most the
      PSD term.
    - The penalty sums T + 2 non-negative terms (PSD, T moduli, null),
      each no smaller than its term in the bound, in another order: the
      factor 1 - s with s = 8 (T + 1) u covers both sums' rounding.

    Tier 2 runs when `best` is finite.  Let `other` be tier 1's bound on
    the modulus and null terms, and c = sqrt(max(0, need)) with
    need = best / (1 - s) - other, the PSD term that would lift the bound
    to `best`; where tier 1 has not proven the sample rejected, c is raised
    to psd_tol(n).  The sample is skipped when `_cholesky_fails` on
    Y_t + sigma I, where sigma = (c + (n - 1) eps + 16 n u R + delta)
    / (1 - delta) solves sigma = c + (n - 1) eps + 16 n u R
    + delta (1 + sigma):

    - Suppose the computed lambda_min(H) is >= -c.  Then lambda_min(H) >=
      -c - 16 n u R (the backward error above), lambda_min(Y_t) >= -c -
      16 n u R - (n - 1) eps (Weyl), and lambda_min(Y_t + sigma I) >=
      delta (1 + sigma).
    - The factored diagonal fl(1 + sigma) is within u (1 + sigma) of
      1 + sigma.  Scaled to a unit diagonal, the factored matrix then has
      lambda_min >= (delta - u) / (1 + u) = n g / (1 - n g), with
      delta = n g / (1 - n g) (1 + u) + u and g = 8 (n + 1) u / (1 - 8 (n + 1) u).
    - Demmel's condition (Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., Thm 10.7): the factorization succeeds in
      floating point when that lambda_min exceeds n gamma / (1 - gamma),
      gamma = gamma_{n+1} = (n + 1) v / (1 - (n + 1) v) with v the
      relative error of one operation; n g / (1 - n g) is no smaller.  A
      complex operation errs by at most sqrt(2) gamma_4 < 6 u (ibid.,
      Lemma 3.5), and g takes v = 8 u.  The excess, over 2 n (n + 1) u
      >= 12 u in delta, exceeds the rounding of delta and sigma and makes
      each inequality strict.  (A 1 x 1 matrix has the pivot
      fl(1 + sigma) > 0.)
    - So a failed factorization proves lambda_min(H) < -c: the sample
      fails the PSD test when c >= psd_tol(n), and its PSD term is at
      least fl(c^2).  Then its penalty reaches `best`: s exceeds the
      (2 T + 6) u that the two sums and the rounding of need, c and c^2
      take.

    A NaN in `yt` or the null term keeps its sample, as every comparison
    with it is false, and in tier 2 it makes R or c and so sigma NaN; a
    NaN B skips it, as B <= B_FLOOR does.
    """
    u = 2.0 ** -53
    n, T = pc.n, yt.shape[1]
    s = 8 * (T + 1) * u
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = 64 * u * (1.0 + 1.0 / pc.zmin) / Bmin
    mod = np.abs(yt)
    big = mod.max(axis=1, initial=0.0)
    eta = 2 * eps + 4 * u * (big + 1.0)
    R = 1.0 + (n - 1) * (big + eps)
    other = np.sum(np.maximum(0.0, mod - (MODULUS_CAP + eta)[:, None]) ** 2, axis=1)
    rejected = big >= 1.0 - DISTINCT_TOL + eta
    if nullok is not None:
        rejected |= ~nullok
        other = other + nullpen
    bound = other
    if pc.pairs is not None:
        r = pc.xx + 2.0 * (yt @ pc.pairs).real
        mu = (n - 1) * eps + R * (abs(1.0 - pc.xx) + (16 * n + 2 * n + 3 * (T + n + 4)) * u)
        rejected |= r + mu < -pc.tol
        bound = np.maximum(0.0, -r - mu) ** 2 + other
    skip = ~(Bmin > B_FLOOR) | (rejected & (bound * (1.0 - s) >= best))
    rows = np.flatnonzero(~skip)
    if rows.size and best < np.inf:
        c = np.sqrt(np.maximum(0.0, best / (1.0 - s) - other[rows]))
        c = np.where(rejected[rows], c, np.maximum(c, pc.tol))
        g = 8 * (n + 1) * u / (1.0 - 8 * (n + 1) * u)
        delta = n * g / (1.0 - n * g) * (1.0 + u) + u
        sigma = (c + (n - 1) * eps[rows] + 16 * n * u * R[rows] + delta) / (1.0 - delta)
        skip[rows] = _cholesky_fails(yt[rows], 1.0 + sigma, n, pc.iu)
    return skip


def oracle_feasible(t: Text, samples: int = 100000, seed: int = 0,
                    keep_all: bool = False) -> OracleReport:
    """Sampling check for the existence of any translation of a text.

    Draws Q uniformly in [-1, 1], tablets uniformly on the padded sphere,
    and free output overlaps in the unit disc; a sample is accepted when
    the assembled output Gram validates and the overlap conditions hold at
    1e-8.  Samples run in batches of 512, and the first batch is the one
    deterministic probe (Q = 0, bare padded tablet, free entries 0), so
    classical texts are found immediately and at least one sample is
    always taken.  A report with found=False says nothing beyond "not
    found in `samples` tries".  Results are identical for identical
    (text, samples, seed).

    A sample's penalty is the PSD term max(0, -lambda_min(Y))^2 of its
    output Gram Y, plus the modulus term of its off-diagonal entries,
    plus, on texts with orthogonal pairs, the null-residual term.  Each
    batch runs in two stages.

    Stage 1 takes every sample on the upper triangle of Y alone: the
    forced entries (`_forced_entries` on the triangle), the free values
    and the null term.  `_skipped` then drops every sample that has
    B <= 1e-12, or that provably fails an acceptance test while a lower
    bound on its penalty is at least the best penalty from before the
    batch, in two tiers.  Tier 1 bounds the modulus and PSD terms of every
    sample; its PSD bound is Rayleigh's, lambda_min(Y) <= x^H Y x for a
    unit x, with x the eigenvector of the probe's smallest eigenvalue when
    that is negative.  Tier 2 takes the samples tier 1 keeps and asks for
    the PSD term that would lift their bound to the best, c^2: a Cholesky
    factorization of the triangle's Hermitian matrix, shifted by a little
    more than c, that fails in floats proves lambda_min(Y) < -c.  The
    triangle may differ from the full Y in the last bits (another loop,
    FMA), so the margins cover that, the rounding of the bounds, the
    backward error of `eigvalsh` and the rounding of the factorization.

    Stage 2 builds the full Y of the kept samples alone (`forced_outputs`),
    then runs the modulus and null tests, `eigvalsh`, the penalty and the
    acceptance test on them; a batch that keeps none skips it, unless it is
    the last.  A skipped sample could neither be accepted nor lower the
    best, so the prune is exact: the report is the one the unpruned
    evaluation gives, bit for bit, with the same draws.
    """
    rng = np.random.default_rng([seed, 1618])
    emb = embed_text(t, pad_extra_dim=True)
    E = emb.vectors
    n = t.n
    free = sorted(null_index_set(t))
    free_i = np.array([i for i, _ in free], dtype=int)
    free_j = np.array([j for _, j in free], dtype=int)
    nonnull = ~np.eye(n, dtype=bool)
    nonnull[free_i, free_j] = nonnull[free_j, free_i] = False
    z = t.gram
    zden = np.where(nonnull, z, 1.0)
    pc = _prune_consts(n, np.abs(z[nonnull]).min(initial=1.0))
    iu = pc.iu
    # sorted, the free pairs come in the triangle's row-by-row order
    free_u = ~nonnull[iu]
    nullok = nullpen = None
    best = np.inf
    used = 0
    accepted_Q: list[float] = []
    witness = None
    while True:
        if used == 0:  # the deterministic Q = 0 probe
            Q = np.zeros(1)
            tablets = np.zeros((1, emb.dim), dtype=complex)
            tablets[0, -1] = 1.0
            free_vals = np.zeros((1, len(free)), dtype=complex)
        else:
            m = int(min(512, samples - used))
            Q = rng.uniform(-1.0, 1.0, size=m)
            raw = rng.standard_normal((m, emb.dim)) + 1j * rng.standard_normal((m, emb.dim))
            tablets = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            radii = np.sqrt(rng.uniform(0.0, 1.0, size=(m, len(free))))
            phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=(m, len(free))))
            free_vals = radii * phases
        used += len(Q)
        # stage 1: every sample, upper triangle
        A = tablets @ E.conj()
        B = 1.0 + Q[:, None] * np.abs(A) ** 2
        safeB = np.where(B > B_FLOOR, B, 1.0)
        yt = _forced_entries(z, zden, Q[:, None], A, safeB, *iu)
        yt[:, free_u] = free_vals
        if free_i.size:
            # orthogonal input pairs still constrain the tablet:
            # |Q a_i conj(a_j)| must vanish there (output entry stays free)
            nullres = np.abs(Q[:, None] * A[:, free_i] * A.conj()[:, free_j])
            nullpen = np.sum(np.maximum(0.0, nullres - EQ4_TOL) ** 2, axis=1)
            nullok = nullres.max(axis=1) <= EQ4_TOL
        # column-wise minimum: exact, NaN-propagating, and on short rows
        # several times faster than B.min(axis=1)
        Bmin = functools.reduce(np.minimum, B.T)
        kept = np.flatnonzero(~_skipped(yt, Bmin, best, nullok, nullpen, pc))
        if not kept.size and used < samples:
            continue
        # stage 2: the kept samples, full Y
        Qk, Ak, Bk = Q[kept], A[kept], safeB[kept]
        Y = forced_outputs(z, zden, Qk, Ak, Bk)
        Y[:, free_i, free_j] = free_vals[kept]
        Y[:, free_j, free_i] = free_vals[kept].conj()
        offmod = np.abs(Y[:, iu[0], iu[1]])
        modpen = np.sum(np.maximum(0.0, offmod - MODULUS_CAP) ** 2, axis=1)
        passes = offmod.max(axis=1, initial=0.0) < 1.0 - DISTINCT_TOL
        lam_min = np.linalg.eigvalsh(Y)[:, 0]
        pen = np.maximum(0.0, -lam_min) ** 2 + modpen
        if free_i.size:
            passes &= nullok[kept]
            pen = pen + nullpen[kept]
        finite = pen[np.isfinite(pen)]
        if finite.size:
            best = min(best, float(finite.min()))
        if used == 1 and lam_min[0] < 0:  # the probe: x for later batches' bound
            pc = _prune_consts(n, pc.zmin, np.linalg.eigh(Y[0])[1][:, 0])
        for k in np.flatnonzero(passes & (lam_min >= -pc.tol)):
            s = kept[k]
            r1 = overlap_residual(t, float(Q[s]), A[s], Y[k])
            if r1 > EQ4_TOL:
                continue
            accepted_Q.append(float(Q[s]))
            if witness is None:
                witness = TranslationWitness(
                    Q=float(Q[s]), q=q_from_Q(float(Q[s])), tablet=np.array(tablets[s]),
                    output_gram=np.array(Y[k]), unitary=None,
                    residuals={"eq4": r1, "eq2": None})
            if not keep_all:
                break
        if used >= samples or (witness is not None and not keep_all):
            break
    return OracleReport(found=witness is not None, best_penalty=float(best),
                        samples=used, seed=seed, witness=witness,
                        accepted_Q=accepted_Q)

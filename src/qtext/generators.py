"""Seeded text generators and a sampling feasibility oracle.

The oracle knows nothing about the decision theory: it samples the
parameter Q, random tablets, and random values for the free output
overlaps, then accepts a sample iff the forced output Gram completes to a
valid text and the overlap conditions hold.  It can certify feasibility,
never infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .texts import Text, embed_text, null_index_set, psd_tol, validate_text
from .graphs import SimpleGraph, graph_of_text
from .translation import TranslationWitness, overlap_residual, q_from_Q
from .classify import hadamard_inverse_signature

MODULUS_CAP = 1.0 - 1e-6


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
        if spec.z is None:
            # keep away from the PSD boundary and from zero
            lo = -1.0 / (n - 1) + 0.02
            z = 0.0
            while abs(z) < 0.02:
                z = float(rng.uniform(lo, 0.95))
        else:
            z = float(spec.z)
        if n < 2 or not (-1.0 / (n - 1) < z < 1.0) or z == 0.0:
            raise InfeasibleSpec(
                f"uniform overlap must lie in (-1/{n - 1}, 1) minus 0, got {z}")
        gram = np.full((n, n), complex(z))
        np.fill_diagonal(gram, 1.0)
        return validate_text(gram)
    if spec.mode == "from_graph":
        if spec.graph is None:
            raise InfeasibleSpec("from_graph mode needs a graph")
        g = spec.graph
        mask = np.zeros((g.n, g.n))
        for (i, j) in g.edges:
            mask[i, j] = mask[j, i] = 1.0
        t = validate_text(_row_dominant(g.n, rng, mask=mask))
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


def oracle_feasible(t: Text, samples: int = 100000, seed: int = 0,
                    keep_all: bool = False) -> OracleReport:
    """Sampling check for the existence of any translation of a text.

    Draws Q uniformly in [-1, 1], tablets uniformly on the padded sphere,
    and free output overlaps in the unit disc; a sample is accepted when
    the assembled output Gram validates and the overlap conditions hold at
    1e-8.  The first probe is deterministic (Q = 0, bare padded tablet,
    free entries 0) so classical texts are found immediately.  A report
    with found=False says nothing beyond "not found in `samples` tries".
    Samples are processed in batches for speed; results are identical for
    identical (text, samples, seed).

    A sample's penalty is the PSD term of its output Gram Y plus the
    modulus term of its off-diagonal entries plus, on texts with
    orthogonal pairs, the null-residual term.  The last two, and the
    acceptance tests on the moduli and the null residuals, need no Y, so
    each batch computes them first for every sample.  Y and its eigvalsh
    are then skipped for a sample that has B <= 1e-12 somewhere, or that
    already fails one of those acceptance tests while its modulus and null
    terms alone are at least the best penalty from before the batch.  Such
    a sample can neither be accepted nor lower the best: the PSD term is
    non-negative and rounded addition is monotone, so its full penalty is
    never below that partial sum.  The prune is exact: the report is the
    one the unpruned evaluation gives, bit for bit, with the same draws.
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
    iu = np.triu_indices(n, 1)
    diag = np.arange(n)
    best = np.inf
    used = 0
    accepted_Q: list[float] = []
    witness = None
    # column of each free pair among the upper-triangle pairs iu
    upper_pos = np.zeros((n, n), dtype=int)
    upper_pos[iu] = np.arange(iu[0].size)
    free_pos = upper_pos[free_i, free_j]

    def evaluate(Q: np.ndarray, tablets: np.ndarray, free_vals: np.ndarray):
        """Batched acceptance test; returns the indices of the accepted
        samples, their output Grams, and every sample's A."""
        nonlocal best
        A = tablets @ E.conj()
        B = 1.0 + Q[:, None] * np.abs(A) ** 2
        okB = B.min(axis=1) > 1e-12
        safeB = np.where(B > 1e-12, B, 1.0)
        num = z[None, :, :] + Q[:, None, None] * (A[:, :, None] * A.conj()[:, None, :])
        den = np.sqrt(safeB[:, :, None] * safeB[:, None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            forced = num / (den * zden[None, :, :])
        # the cheap terms, for every sample: Y's upper triangle is the
        # forced entries with the free values in place
        upper = forced[:, iu[0], iu[1]]
        upper[:, free_pos] = free_vals
        offmod = np.abs(upper)
        modpen = np.sum(np.maximum(0.0, offmod - MODULUS_CAP) ** 2, axis=1)
        partial = modpen
        passes = offmod.max(axis=1, initial=0.0) < 1.0 - 1e-12
        if free_i.size:
            # orthogonal input pairs still constrain the tablet:
            # |Q a_i conj(a_j)| must vanish there (output entry stays free)
            nullres = np.abs(Q[:, None] * A[:, free_i] * A.conj()[:, free_j])
            nullpen = np.sum(np.maximum(0.0, nullres - 1e-8) ** 2, axis=1)
            partial = modpen + nullpen
            passes &= nullres.max(axis=1) <= 1e-8
        # a NaN partial sum keeps its sample
        kept = np.flatnonzero(okB & (passes | ~(partial >= best)))
        # Y and eigvalsh for the kept samples only; eigvalsh reads the
        # lower triangle, which stays the forced formula's own entries
        Y = forced if kept.size == len(Q) else forced[kept]
        Y[:, diag, diag] = 1.0
        Y[:, free_i, free_j] = free_vals[kept]
        Y[:, free_j, free_i] = free_vals[kept].conj()
        lam_min = np.linalg.eigvalsh(Y)[:, 0]
        pen = np.maximum(0.0, -lam_min) ** 2 + modpen[kept]
        if free_i.size:
            pen = pen + nullpen[kept]
        finite = pen[np.isfinite(pen)]
        if finite.size:
            best = min(best, float(finite.min()))
        ok = passes[kept] & (lam_min >= -psd_tol(n))
        return kept[ok], Y[ok], A

    def record(Q, tablet, Y, A) -> bool:
        nonlocal witness
        r1 = overlap_residual(t, float(Q), A, Y)
        if r1 > 1e-8:
            return False
        accepted_Q.append(float(Q))
        if witness is None:
            witness = TranslationWitness(
                Q=float(Q), q=q_from_Q(float(Q)), tablet=np.array(tablet),
                output_gram=np.array(Y), unitary=None,
                residuals={"eq4": r1, "eq2": None})
        return True

    # deterministic classical probe
    probe = np.zeros((1, emb.dim), dtype=complex)
    probe[0, -1] = 1.0
    used += 1
    acc, Y, A = evaluate(np.zeros(1), probe, np.zeros((1, len(free)), dtype=complex))
    if acc.size:
        record(0.0, probe[0], Y[0], A[0])
        if not keep_all:
            return OracleReport(found=True, best_penalty=float(best),
                                samples=used, seed=seed, witness=witness,
                                accepted_Q=accepted_Q)

    batch = 512
    while used < samples:
        m = int(min(batch, samples - used))
        Q = rng.uniform(-1.0, 1.0, size=m)
        raw = rng.standard_normal((m, emb.dim)) + 1j * rng.standard_normal((m, emb.dim))
        tablets = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        radii = np.sqrt(rng.uniform(0.0, 1.0, size=(m, len(free))))
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=(m, len(free))))
        free_vals = radii * phases
        acc, Y, A = evaluate(Q, tablets, free_vals)
        used += m
        hit = False
        for s, Ys in zip(acc, Y):
            hit = record(Q[s], tablets[s], Ys, A[s]) or hit
            if hit and not keep_all:
                break
        if hit and not keep_all:
            break
    return OracleReport(found=witness is not None, best_penalty=float(best),
                        samples=used, seed=seed, witness=witness,
                        accepted_Q=accepted_Q)

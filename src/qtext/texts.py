"""Families of distinct unit states represented by their Gram matrix.

A *text* is a finite family of N distinct unit vectors in some Hilbert
space.  Everything observable about it is carried by the N x N Gram matrix
of pairwise inner products, so that matrix is the canonical representation:
Hermitian, positive semidefinite, unit diagonal, and off-diagonal moduli
strictly below one (distinctness up to phase).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries with modulus at or below ZERO_TOL count as orthogonal pairs.
ZERO_TOL = 1e-9
HERMITIAN_TOL = 1e-12
DIAGONAL_TOL = 1e-12
DISTINCT_TOL = 1e-12
UNIFORM_TOL = 1e-12
REAL_TOL = 1e-12
EQUIV_TOL = 1e-9
# Rank cut for embeddings; far below psd_tol so round-trips stay at 1e-10.
RANK_TOL = 1e-11


def psd_tol(n: int) -> float:
    """Eigenvalue floor for accepting an n x n Gram matrix as PSD."""
    return 1e-9 * n


def pd_tol(n: int) -> float:
    """Strict positivity margin defining an efficient text."""
    return 1e-9 * n


class TextError(ValueError):
    """A Gram matrix failed validation."""


class NonFinite(TextError):
    pass


class NotHermitian(TextError):
    pass


class BadDiagonal(TextError):
    pass


class NotPSD(TextError):
    pass


class DuplicateStates(TextError):
    pass


class SizeMismatch(TextError):
    pass


@dataclass(frozen=True)
class Text:
    """A validated text: `n` states with Gram matrix `gram` (complex, n x n).

    Construct through `validate_text`; the array is stored read-only.
    """

    n: int
    gram: np.ndarray

    def __post_init__(self):
        self.gram.setflags(write=False)


def validate_text(raw) -> Text:
    """Validate a raw Gram matrix and wrap it as a Text.

    Parameters
    ----------
    raw : array_like
        Square complex matrix of inner products <psi_i|psi_j>.

    Returns
    -------
    Text

    Raises
    ------
    TextError
        Subclass naming the first violated constraint: NonFinite,
        NotHermitian (1e-12), BadDiagonal (1e-12), DuplicateStates
        (off-diagonal modulus >= 1 - 1e-12), NotPSD (min eigenvalue
        below -1e-9 * n).
    """
    gram = np.array(raw, dtype=complex)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise SizeMismatch(f"expected a square matrix, got shape {gram.shape}")
    n = gram.shape[0]
    if n == 0:
        raise SizeMismatch("empty text")
    if not np.all(np.isfinite(gram.real)) or not np.all(np.isfinite(gram.imag)):
        raise NonFinite("gram matrix has non-finite entries")
    herm = np.max(np.abs(gram - gram.conj().T)) if n else 0.0
    if herm > HERMITIAN_TOL:
        raise NotHermitian(f"max |z - z^H| = {herm:.3e} exceeds {HERMITIAN_TOL:.0e}")
    diag = np.max(np.abs(np.diag(gram) - 1.0))
    if diag > DIAGONAL_TOL:
        raise BadDiagonal(f"max |z_ii - 1| = {diag:.3e} exceeds {DIAGONAL_TOL:.0e}")
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.max(np.abs(gram[off])) >= 1.0 - DISTINCT_TOL:
        i, j = np.unravel_index(np.argmax(np.abs(gram * off)), gram.shape)
        raise DuplicateStates(
            f"|z_{i}{j}| = {abs(gram[i, j]):.12f}; states must be distinct up to phase"
        )
    evals = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    if evals[0] < -psd_tol(n):
        raise NotPSD(f"min eigenvalue {evals[0]:.3e} below -{psd_tol(n):.1e}")
    return Text(n=n, gram=gram)


@dataclass(frozen=True)
class TextProperties:
    """Structural flags of a text.

    classical      : every off-diagonal entry orthogonal (|z_ij| <= 1e-9)
    fully_quantum  : no off-diagonal entry orthogonal
    efficient      : Gram matrix positive definite (margin 1e-9 * n)
    uniform        : all off-diagonal entries equal (tolerance 1e-12)
    real_text      : all entries real (tolerance 1e-12)
    """

    classical: bool
    fully_quantum: bool
    efficient: bool
    uniform: bool
    real_text: bool


def _orthogonal(z: np.ndarray) -> np.ndarray:
    """Mask of the entries of z that count as orthogonal, |z_ij| <= 1e-9.

    text_properties, graph_of_text and null_index_set all decide with it.
    The modulus is hypot(re, im), the scalar abs bit for bit; np.abs of a
    complex array can differ from it in the last bit, which moves entries
    at ZERO_TOL.
    """
    return np.hypot(z.real, z.imag) <= ZERO_TOL


def text_properties(t: Text) -> TextProperties:
    """Compute the structural flags of a validated text."""
    n = t.n
    off = ~np.eye(n, dtype=bool)
    offvals = t.gram[off]
    orthogonal = _orthogonal(offvals)
    classical = bool(np.all(orthogonal))
    fully_quantum = not np.any(orthogonal)
    evals = np.linalg.eigvalsh(t.gram)
    efficient = bool(evals[0] > pd_tol(n))
    uniform = bool(n == 1 or np.max(np.abs(offvals - offvals[0])) <= UNIFORM_TOL)
    real_text = bool(np.max(np.abs(t.gram.imag)) <= REAL_TOL)
    return TextProperties(
        classical=classical,
        fully_quantum=fully_quantum,
        efficient=efficient,
        uniform=uniform,
        real_text=real_text,
    )


def null_index_set(t: Text) -> frozenset[tuple[int, int]]:
    """Pairs (i, j), i < j, whose inner product is orthogonal at 1e-9."""
    i, j = np.nonzero(_orthogonal(t.gram))
    upper = i < j
    return frozenset(zip(i[upper].tolist(), j[upper].tolist()))


def subtext(t: Text, indices) -> Text:
    """Restrict a text to the given state indices, in the given order."""
    idx = list(indices)
    if len(idx) == 0:
        raise SizeMismatch("subtext needs at least one index")
    if len(set(idx)) != len(idx):
        raise SizeMismatch("subtext indices must be distinct")
    for i in idx:
        if not (0 <= i < t.n):
            raise SizeMismatch(f"index {i} out of range for n = {t.n}")
    return Text(n=len(idx), gram=t.gram[np.ix_(idx, idx)].copy())


@dataclass(frozen=True)
class StateEmbedding:
    """Concrete unit vectors realizing a text.

    vectors : complex (dim x n) array; column i is state i.
    padded  : True when a fresh all-zero coordinate was appended, giving
              room for a vector outside the span of the states.
    """

    dim: int
    vectors: np.ndarray
    padded: bool

    def __post_init__(self):
        self.vectors.setflags(write=False)


def embed_text(t: Text, pad_extra_dim: bool = False) -> StateEmbedding:
    """Build unit vectors whose Gram matrix reproduces the text.

    Uses the spectral factorization z = V diag(lam) V^H and keeps the
    eigenvalues above max(lam) * 1e-11, so the reconstruction error stays
    within 1e-10 entrywise.
    """
    evals, evecs = np.linalg.eigh(t.gram)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    cut = max(evals[0], 1.0) * RANK_TOL
    keep = evals > cut
    rank = int(np.count_nonzero(keep))
    vectors = np.sqrt(evals[keep])[:, None] * evecs[:, keep].conj().T
    if pad_extra_dim:
        vectors = np.vstack([vectors, np.zeros((1, t.n), dtype=complex)])
    return StateEmbedding(dim=rank + (1 if pad_extra_dim else 0),
                          vectors=np.ascontiguousarray(vectors),
                          padded=pad_extra_dim)


def gram_of(vectors: np.ndarray) -> np.ndarray:
    """Gram matrix of the columns of `vectors`."""
    return vectors.conj().T @ vectors


def texts_equivalent(a: Text, b: Text) -> bool:
    """Whether two texts agree up to a phase on each state.

    Moduli must match within 1e-9; the phase pattern is then propagated
    along the non-orthogonal pairs of `a` and verified globally.
    """
    if a.n != b.n:
        raise SizeMismatch(f"texts have sizes {a.n} and {b.n}")
    n = a.n
    if np.max(np.abs(np.abs(a.gram) - np.abs(b.gram))) > EQUIV_TOL:
        return False
    # d_j = phase of state j of b relative to state j of a; propagate over
    # the graph of non-orthogonal pairs, then verify every entry.
    phases = np.zeros(n, dtype=complex)
    seen = np.zeros(n, dtype=bool)
    for root in range(n):
        if seen[root]:
            continue
        phases[root] = 1.0
        seen[root] = True
        stack = [root]
        while stack:
            i = stack.pop()
            for j in range(n):
                if seen[j] or abs(a.gram[i, j]) <= ZERO_TOL:
                    continue
                ratio = b.gram[i, j] / a.gram[i, j]
                mag = abs(ratio)
                if mag <= ZERO_TOL:
                    continue
                phases[j] = phases[i] * ratio / mag
                seen[j] = True
                stack.append(j)
    recolored = np.outer(phases.conj(), phases) * a.gram
    return bool(np.max(np.abs(recolored - b.gram)) <= EQUIV_TOL)

"""Independent checks on qtext outputs, written with numpy alone.

Nothing here calls into qtext: each expected answer is recomputed from the
Gram matrix, from closed forms, or from how a corpus text was built.
"""

from __future__ import annotations

import numpy as np

ZERO_TOL = 1e-9          # orthogonality threshold on |z_ij|
SIGNATURE_SCALE = 1e-9   # zero band of the reciprocal-Gram spectrum
R1_TOL = 1e-8
UNITARITY_TOL = 1e-10
EMBED_TOL = 1e-10
DIAG_TOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program disagrees with the independent check."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def edges_of(z: np.ndarray) -> set[tuple[int, int]]:
    """Overlap graph of a Gram matrix: (i, j), i < j, with |z_ij| > 1e-9."""
    n = z.shape[0]
    iu = np.triu_indices(n, 1)
    keep = np.abs(z[iu]) > ZERO_TOL
    return {(int(i), int(j)) for i, j in zip(iu[0][keep], iu[1][keep])}


def inertia(m: np.ndarray) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a Hermitian matrix,
    with zero meaning |lambda| <= 1e-9 * max |lambda|."""
    lam = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    thr = SIGNATURE_SCALE * float(np.max(np.abs(lam)))
    return (int(np.sum(lam > thr)), int(np.sum(lam < -thr)),
            int(np.sum(np.abs(lam) <= thr)))


def core_signs(z_core: np.ndarray) -> frozenset[int]:
    """Admissible signs of Q for a complete core: -1 when 1./z has exactly
    one positive eigenvalue, +1 when it has exactly one negative one."""
    pos, neg, _ = inertia(1.0 / z_core)
    signs = set()
    if pos == 1:
        signs.add(-1)
    if neg == 1:
        signs.add(+1)
    return frozenset(signs)


def uniform_signs(z: float) -> frozenset[int]:
    """Closed form for a uniform n-text (n >= 3): 1./z has eigenvalues
    1 + (n-1)/z once and 1 - 1/z n-1 times, so z > 0 leaves one positive
    eigenvalue (sign -1) and -1/(n-1) < z < 0 leaves one negative (+1)."""
    return frozenset({-1}) if z > 0 else frozenset({+1})


def is_efficient(z: np.ndarray) -> bool:
    n = z.shape[0]
    return bool(np.linalg.eigvalsh(z)[0] > 1e-9 * n)


def induced_kind(z: np.ndarray, vertices) -> str | None:
    """Name of the forbidden graph induced on `vertices`, from edge and
    degree counts (which determine each of the four on 4 or 5 vertices)."""
    vs = list(vertices)
    sub = z[np.ix_(vs, vs)]
    e = edges_of(sub)
    deg = sorted(sum(v in p for p in e) for v in range(len(vs)))
    if len(vs) == 4 and len(e) == 2 and deg == [1, 1, 1, 1]:
        return "TwoK2"
    if len(vs) == 4 and len(e) == 4 and deg == [2, 2, 2, 2]:
        return "C4"
    if len(vs) == 4 and len(e) == 5:
        return "Diamond"
    if len(vs) == 5 and len(e) == 5 and deg == [2] * 5:
        return "C5"
    return None


def check_output_gram(y: np.ndarray) -> None:
    y = np.asarray(y, dtype=complex)
    n = y.shape[0]
    require(np.max(np.abs(y - y.conj().T)) <= DIAG_TOL, "output Gram not Hermitian")
    require(np.max(np.abs(np.diag(y) - 1.0)) <= DIAG_TOL, "output Gram diagonal not 1")
    require(np.linalg.eigvalsh((y + y.conj().T) / 2.0)[0] >= -1e-9 * n,
            "output Gram not PSD")


def witness_r1(z: np.ndarray, vectors: np.ndarray, tablet: np.ndarray,
               Q: float, y: np.ndarray) -> float:
    """Overlap residual max |z_ij + Q a_i a_j* - sqrt(B_i B_j) y_ij z_ij|,
    on an embedding whose Gram is first checked against the text."""
    gram = vectors.conj().T @ vectors
    require(np.max(np.abs(gram - z)) <= EMBED_TOL,
            "embedding Gram does not reproduce the text")
    tablet = np.asarray(tablet, dtype=complex)
    require(abs(np.linalg.norm(tablet) - 1.0) <= EMBED_TOL, "tablet is not a unit vector")
    a = vectors.conj().T @ tablet
    b = 1.0 + Q * np.abs(a) ** 2
    resid = np.abs(z + Q * np.outer(a, a.conj()) - np.sqrt(np.outer(b, b)) * y * z)
    iu = np.triu_indices(z.shape[0], 1)
    return float(resid[iu].max()) if iu[0].size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def sign_of(Q: float) -> int:
    return 0 if Q == 0.0 else (1 if Q > 0 else -1)

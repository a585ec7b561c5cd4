"""Deciding translatability of a text from its Gram matrix.

The decision reduces to graph shape plus one spectral test.  For a text
with no orthogonal pairs, form the entrywise reciprocal M = 1 ./ z of the
Gram matrix.  A translation with parameter Q of sign eps exists (for some
arbitrarily small |Q|) iff all eigenvalues of M except one simple one have
sign eps or vanish.  Texts with orthogonal pairs are handled by splitting the
overlap graph: isolated states contribute a free classical summand, and
pendant states attach to a complete core that must admit eps = +1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .texts import Text, _orthogonal, subtext, text_properties
from .graphs import ForbiddenWitness, WellSplitParts, overlap_mask, read_well_split, recognize

SIGNATURE_SCALE = 1e-9

REASON_OK_CLASSICAL = "OK_CLASSICAL"
REASON_OK_FULLY_QUANTUM = "OK_FULLY_QUANTUM"
REASON_OK_MIXED = "OK_MIXED"
REASON_NOT_EFFICIENT = "NOT_EFFICIENT"
REASON_NOT_WELL_SPLIT = "NOT_WELL_SPLIT"
REASON_SIGNATURE_FAIL = "THEOREM_F_FAIL"
REASON_CORE_SIGN_FAIL = "THEOREM_I_FAIL"
REASON_Q0_NOT_CLASSICAL = "Q0_NOT_CLASSICAL"


class HasOrthogonalPair(ValueError):
    """The reciprocal-Gram signature needs a text without orthogonal pairs."""


class BorderlineSignature(RuntimeError):
    """An eigenvalue sits inside the zero-decision band; refusing to guess."""


@dataclass(frozen=True)
class EigenSignature:
    """Inertia of the entrywise reciprocal of the Gram matrix.

    admissible_signs holds the values of sign(Q) for which arbitrarily
    small translations exist: -1 when exactly one eigenvalue is positive,
    +1 when exactly one is negative.  det_nonzero reports whether the
    output text can be efficient.
    """

    n_pos: int
    n_neg: int
    n_zero: int
    admissible_signs: frozenset[int]
    det_nonzero: bool
    eigenvalues: tuple[float, ...]


def hadamard_inverse_signature(t: Text) -> EigenSignature:
    """Signature of M = 1 ./ z for a text with no orthogonal pairs.

    Eigenvalues with |lam| <= 1e-9 * max|lam| count as zero; any
    eigenvalue inside (threshold/10, threshold*10) raises
    BorderlineSignature instead of guessing a sign.
    """
    # the diagonal of a valid text is never orthogonal
    if _orthogonal(t.gram).any():
        raise HasOrthogonalPair("text has an orthogonal pair; signature undefined")
    M = 1.0 / t.gram
    lam = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    thr = SIGNATURE_SCALE * float(np.max(np.abs(lam)))
    mag = np.abs(lam)
    if np.any((mag > thr / 10.0) & (mag < thr * 10.0)):
        raise BorderlineSignature(
            f"an eigenvalue has modulus within ({thr / 10.0:.3e}, {thr * 10.0:.3e})")
    n_zero = int(np.count_nonzero(mag <= thr))
    n_pos = int(np.count_nonzero(lam > thr))
    n_neg = int(np.count_nonzero(lam < -thr))
    if t.n >= 2 and (n_pos < 1 or n_neg < 1):
        raise RuntimeError(
            "internal: reciprocal Gram of a valid text must be indefinite")
    signs = set()
    if n_pos == 1:
        signs.add(-1)
    if n_neg == 1:
        signs.add(+1)
    return EigenSignature(
        n_pos=n_pos, n_neg=n_neg, n_zero=n_zero,
        admissible_signs=frozenset(signs),
        det_nonzero=bool(n_zero == 0),
        eigenvalues=tuple(float(x) for x in lam),
    )


@dataclass(frozen=True)
class Decision:
    """The answer for one text; `decomposition` is the well-split read-off
    of its overlap graph (every state isolated for a classical text)."""

    translatable: bool
    reason: str
    signature: EigenSignature | None = None
    decomposition: WellSplitParts | None = None
    sign_constraint: frozenset[int] | None = None
    forbidden_witness: ForbiddenWitness | None = None


def decide_translatable(t: Text) -> Decision:
    """Full decision procedure for a text.

    Order of checks: efficiency (the text's own verdict, `Text.efficient`,
    which `validate_text` has already taken), overlap-graph shape, then the
    spectral test on the complete core.  The returned reason is one of the OK_*
    codes or names the failed stage.
    """
    if not t.efficient:
        return Decision(translatable=False, reason=REASON_NOT_EFFICIENT)
    adj = overlap_mask(t.gram)
    if not adj.any():
        return Decision(translatable=True, reason=REASON_OK_CLASSICAL,
                        decomposition=_all_isolated(t.n), sign_constraint=None)
    rec = recognize(adj)
    if rec.witness is not None:  # not split, or split but not well-split
        return Decision(translatable=False, reason=REASON_NOT_WELL_SPLIT,
                        forbidden_witness=rec.witness)
    parts = read_well_split(adj, rec)
    sig = hadamard_inverse_signature(subtext(t, parts.core))
    if parts.anchors:
        # pendants force Q > 0 whether or not the core signature allows it
        signs = frozenset({+1})
        ok = +1 in sig.admissible_signs
        reason = REASON_OK_MIXED if ok else REASON_CORE_SIGN_FAIL
    else:
        # No pendants: the edges form a complete core; only the spectral test is left.
        signs = sig.admissible_signs
        ok = bool(signs)
        reason = REASON_OK_FULLY_QUANTUM if ok else REASON_SIGNATURE_FAIL
    return Decision(translatable=ok, reason=reason, signature=sig,
                    decomposition=parts, sign_constraint=signs)


def decide_zero_translatable(t: Text) -> Decision:
    """Decision for translations with Q = 0: exactly the classical texts.

    At Q = 0 every forced output overlap equals 1, so any non-orthogonal
    pair of distinct states is an obstruction.
    """
    props = text_properties(t)
    if props.classical:
        return Decision(translatable=True, reason=REASON_OK_CLASSICAL,
                        decomposition=_all_isolated(t.n),
                        sign_constraint=frozenset({0}))
    return Decision(translatable=False, reason=REASON_Q0_NOT_CLASSICAL)


def _all_isolated(n: int) -> WellSplitParts:
    """The read-off of an edgeless graph on n vertices."""
    return WellSplitParts(core=(), anchors={}, isolated=tuple(range(n)))

"""Constructing translations.

Two construction routes, dispatched by `translate`, both in closed form:

* classical texts are cloned exactly (Q = 0, any target output);
* every other text is a complete core, all of it when there are no
  orthogonal pairs, with pendants and isolated states.  Its tablet
  overlaps come from the exceptional eigenvector of the core's reciprocal
  Gram matrix (stepped into the cone of valid directions when it has a
  zero entry), the all-ones vector on a uniform real core, and are zero
  off the core; each pendant's output is its anchor's, shrunk in closed
  form, and isolated states join as a free classical summand.  That closed
  form is the end of the paper's chain of one-pendant attachments, which
  the tests keep as a referee in `tests/conftest.py`.

Q is never searched for.  It is the geometric middle of the |Q| interval of
`_feasible_q`, on which the forced output Gram meets every constraint, and
one `eigvalsh` confirms that Gram.  `realize_graph` certifies a text with
edges through the same route, so its witness is `translate`'s; an
edgeless graph gets the identity text and a Q = 1 witness of its own,
where `translate` clones that text with Q = 0.  The builders return bare
witnesses (no unitary, no residuals); `translate` and `realize_graph` end
in `_finish`, which synthesizes the unitary, runs the one check
(`check_witness`'s, on the frames the unitary was built from, with the
defect bound whose remainder is taken from the factors in place of any
other defect when it clears the gate) and stores its r1 and r3 as the
residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy  # unused here; perfbench/tracing.py patches synth.scipy.optimize

from .texts import (
    DISTINCT_TOL,
    Text,
    SizeMismatch,
    _upper_index,
    psd_tol,
    subtext,
    text_properties,
    validate_text,
)
from .graphs import (SimpleGraph, WellSplitParts, graph_of_text, read_well_split,
                     recognize)
from .classify import (
    REASON_OK_CLASSICAL,
    SIGNATURE_SCALE,
    Decision,
    decide_translatable,
    decide_zero_translatable,
)
from .translation import (
    TranslationWitness,
    TranslationError,
    _certified_defect,
    _check,
    _witness_frames,
    forced_outputs,
    synthesize_unitary,
    witness_from_overlaps,
    B_FLOOR,
    MODULUS_CAP,
)

# |Q| of the witness a classical text gets for a forced sign of Q
FORCED_SIGN_Q = 0.05
# 1 / sqrt(1 + x) < 1 - DISTINCT_TOL exactly when x > PENDANT_FLOOR
PENDANT_FLOOR = (1.0 - DISTINCT_TOL) ** -2 - 1.0


class SynthError(ValueError):
    pass


class Untranslatable(SynthError):
    """The classifier refused the text; carries the Decision."""

    def __init__(self, decision: Decision):
        super().__init__(f"untranslatable: {decision.reason}")
        self.decision = decision


class SearchBudgetExhausted(SynthError):
    pass


class NotClassical(SynthError):
    pass


@dataclass(frozen=True)
class QInterval:
    """Every |Q| strictly between lo and hi meets the constraints on Q of
    one overlap direction and sign; lo_by and hi_by name the constraint that
    binds at each end.  Empty when lo >= hi."""

    lo: float
    hi: float
    lo_by: str
    hi_by: str

    def above(self, lo: float, by: str) -> QInterval:
        return replace(self, lo=float(lo), lo_by=by) if lo > self.lo else self

    def below(self, hi: float, by: str) -> QInterval:
        return replace(self, hi=float(hi), hi_by=by) if hi < self.hi else self

    @property
    def empty(self) -> bool:
        return not self.lo < self.hi

    def __str__(self) -> str:
        return f"|Q| from {self.lo:.6g} ({self.lo_by}) to {self.hi:.6g} ({self.hi_by})"


@dataclass
class SearchOutcome:
    """A route's result for one sign of Q: a bare witness or None, and the
    feasible |Q| interval of its overlap direction (None without one)."""

    witness: TranslationWitness | None
    interval: QInterval | None

    def refusal(self, sign: int) -> str:
        """Why there is no witness, naming the constraints that bind."""
        why = ("no overlap direction" if self.interval is None
               else f"no feasible Q, {self.interval}" if self.interval.empty
               else f"output Gram not PSD in the middle of {self.interval}")
        return f"sign {sign:+d}: {why}"


def _feasible_q(t: Text, a: np.ndarray, sign: int, q_psd: float) -> QInterval:
    """The |Q| on which the output Gram Y(Q) forced by overlaps `a`, with Q
    of the given sign, meets each constraint, in O(n^2):

    * cap: |y_ij| <= MODULUS_CAP squares to A x^2 + b x + C <= 0 in
      x = |Q|, with A = |a_i a_j|^2 (1 / |z_ij|^2 - cap^2) > 0 and
      C = 1 - cap^2 > 0.  The roots, of product C / A, are real and
      positive iff b^2 >= 4 A C and b < 0; the pair is feasible between
      them, else nowhere.  The cap sets the lower end (|y_ij| = 1 at Q = 0).
    * B: B_i = 1 + Q |a_i|^2 > B_FLOOR, a bound on Q < 0 only.
    * |Q| <= 1.
    * PSD: Y(Q) = D (w w^H + Q M) D^H with w = 1 ./ a, M = 1 ./ z and
      D = diag(a / sqrt(B)), so by Sylvester's law of inertia it is PSD
      with w w^H + Q M.  When Q M has one negative eigenvalue, that
      rank-one update has at most one, and by the matrix determinant lemma
      none exactly for 0 < Q / q_psd < 1, q_psd = -w^H M^+ w.  For a sign
      that the signature of M does not admit this end proves nothing: the
      route's one eigvalsh of Y is the check.
    """
    iu = _upper_index(t.n)
    p = np.abs(a) ** 2
    pi, pj, z = p[iu[0]], p[iu[1]], t.gram[iu]
    cap2 = MODULUS_CAP * MODULUS_CAP
    A = pi * pj * (1.0 / np.abs(z) ** 2 - cap2)
    b = sign * (2.0 * (a[iu[0]] * a[iu[1]].conj() / z).real - cap2 * (pi + pj))
    C = (1.0 - MODULUS_CAP) * (1.0 + MODULUS_CAP)
    disc = b * b - 4.0 * A * C
    real = (disc >= 0.0) & (b < 0.0)
    # the roots without cancellation: C / s and s / A, s = (|b| + sqrt(disc)) / 2
    s = np.where(real, 0.5 * (np.sqrt(np.where(real, disc, 0.0)) - b), 1.0)
    iv = QInterval(0.0, 1.0, "Q = 0", "|Q| <= 1")
    iv = iv.above(np.max(np.where(real, C / s, np.inf), initial=0.0), "cap")
    iv = iv.below(np.min(np.where(real, s / A, 0.0), initial=np.inf), "cap")
    if sign < 0:
        iv = iv.below((1.0 - B_FLOOR) / np.max(p), "B")
    return iv.below(max(0.0, sign * q_psd), "PSD")


def _eigen_overlaps(t: Text, core: list[int],
                    sign: int) -> tuple[np.ndarray | None, QInterval | None]:
    """Overlaps o from the exceptional eigenvector of M = 1 ./ z on the
    core, zero off it and scaled so that o^H z^-1 o = 1 on the whole text,
    and the `_feasible_q` interval of o on the core, whose PSD end
    -w^H M^+ w, w = 1 ./ o[core], comes from the same eigendecomposition
    without the eigenvalues inside the zero band of the signature test.

    For sign(Q) = +1 the relevant eigenvector u belongs to the smallest
    eigenvalue, for -1 to the largest; M is semidefinite of sign sign(Q)
    on the hyperplane orthogonal to u, and entrywise inversion of u makes
    the constraint subspace of the output Gram match the sign condition.

    When u has a (near-)zero entry, w is a nearby direction with no such
    entry:

    * M invertible: any w with sign * (w* M^-1 w) < 0 serves, since by
      Haynsworth inertia additivity on [[M, w], [w*, 0]] M is then
      definite of sign sign(Q) on the hyperplane orthogonal to w.  The
      step w = u + s 1 enters that open cone: for a unit u, sign * (w* M^-1 w)
      = sign (1 / lam_u + 2 s Re(sum u) / lam_u + s^2 1^H M^-1 1) is negative
      from s = 0 to its least positive root r, and s = 1e-2 max|u| 2^-k
      with the least k >= 0 for which s < r.
    * M singular: w = u + 1e-2 v, with v the eigenvector of the opposite
      extreme eigenvalue.  The hyperplane orthogonal to w holds every other
      eigenvector and 1e-2 u - v, whose Rayleigh quotient is proportional
      to 1e-4 lam_u + lam_v, of sign sign(Q) while |lam_v| > 1e-4 |lam_u|;
      so the compression of M to it is semidefinite of sign sign(Q), with
      the null vectors of M in its kernel.  By Cauchy interlacing no hyperplane
      does better than semidefinite, and the output Gram is singular.

    Returns (None, None) when the step leaves a zero entry.
    """
    t_core = subtext(t, core)
    M = 1.0 / t_core.gram
    lam, vec = np.linalg.eigh((M + M.conj().T) / 2.0)
    k = 0 if sign > 0 else -1
    u, v, lam_u = vec[:, k], vec[:, -1 - k], lam[k]
    band = np.abs(lam) <= SIGNATURE_SCALE * np.max(np.abs(lam))

    def no_zero_entry(w):
        return np.min(np.abs(w)) >= 1e-10 * np.max(np.abs(w))

    if no_zero_entry(u):
        w = u
    elif band.any():
        w = u + 1e-2 * v
    else:
        # the quadratic as al + 2 be s + ga s^2, al < 0 since M (unit diagonal,
        # |m_ij| > 1 off it) has lam_min < 0 < lam_max; its least positive
        # root without cancellation is -al / (be + sqrt(be^2 - al ga))
        al, be = sign / lam_u, sign * float(np.sum(u).real) / lam_u
        ga = sign * float(np.sum(np.abs(np.sum(vec, axis=0)) ** 2 / lam))
        disc = be * be - al * ga
        den = be + np.sqrt(disc) if disc >= 0.0 else 0.0
        r = -al / den if den > 0.0 else np.inf
        s0 = 1e-2 * np.max(np.abs(u))
        w = u + s0 * 0.5 ** (0 if s0 < r else int(np.floor(np.log2(s0 / r))) + 1)
    if not no_zero_entry(w):
        return None, None
    o = np.zeros(t.n, dtype=complex)
    o[core] = 1.0 / w
    F = float(np.real(np.vdot(o, np.linalg.solve(t.gram, o))))
    if F <= 0:
        raise TranslationError("degenerate overlap direction")
    o = o / np.sqrt(F)
    a = o[core]
    q_psd = -float(np.sum(np.abs(vec[:, ~band].conj().T @ (1.0 / a)) ** 2 / lam[~band]))
    return o, _feasible_q(t_core, a, sign, q_psd)


def clone_classical(t: Text, target_output=None) -> TranslationWitness:
    """Exact translation of a classical text onto an arbitrary target text.

    Q = 0, the tablet sits in the fresh padded coordinate, and the output
    Gram is free to be any valid text of the same size (default: the input
    itself).  The overlap residual is exactly zero.  The witness is bare:
    no unitary, no residuals.
    """
    props = text_properties(t)
    if not props.classical:
        raise NotClassical("cloning requires a classical text")
    if target_output is None:
        target = t
    elif isinstance(target_output, Text):
        target = target_output
    else:
        target = validate_text(target_output)
    if target.n != t.n:
        raise SizeMismatch(f"target has {target.n} states, text has {t.n}")
    overlaps = np.zeros(t.n, dtype=complex)
    return witness_from_overlaps(t, 0.0, overlaps, target.gram)


def _pendant_rows(Y0: np.ndarray, anchors: dict[int, int], B: np.ndarray) -> np.ndarray:
    """Y0, the output Gram of the other states, with each pendant's output
    its anchor's over sqrt(B_anchor) plus a fresh orthogonal part; pendants
    of one anchor overlap by 1 / B_anchor.  Every other entry of Y0 is kept
    bit for bit."""
    pend, anch = list(anchors), list(anchors.values())
    d = 1.0 / np.sqrt(B[anch])
    Y = Y0.copy()
    Y[pend, :] = d[:, None] * Y0[anch, :]
    Y[:, pend] = Y[:, anch] * d[None, :]
    Y[pend, pend] = 1.0
    return Y


def _mixed_witness(t: Text, core: list[int], anchors: dict[int, int],
                   sign: int) -> SearchOutcome:
    """The route for every text with a complete core (all of it, with no
    anchors, on a text without orthogonal pairs), behind `translate` and
    `realize_graph`: the `_eigen_overlaps` overlaps o at Q = sign sqrt(lo hi),
    the geometric middle of their feasible |Q| interval, as one bare
    witness on the whole text.  `_route` is its one caller.

    It is the core's eigenvector route and a chain of one-pendant
    attachments in closed form (the referee in `tests/conftest.py` takes
    the steps one at a time): the chain ends in the unit tablet with
    overlaps o, so the interval in the final Q needs no bound of its own
    for the chain.  It is cut where a pendant's output overlap with its
    anchor, 1 / sqrt(B_anchor), would reach 1 - DISTINCT_TOL ("pendant").
    Isolated states keep zero overlap and a fresh output.  One eigvalsh
    refuses a core output Gram below validate_text's -psd_tol(k).
    """
    o, iv = _eigen_overlaps(t, core, sign)
    if o is None:
        return SearchOutcome(None, None)
    low = np.min(np.abs(o[list(anchors.values())]) ** 2, initial=np.inf)
    iv = iv.above(PENDANT_FLOOR / low, "pendant")
    if iv.empty:
        return SearchOutcome(None, iv)
    Q = sign * float(np.sqrt(iv.lo * iv.hi))
    B = 1.0 + Q * np.abs(o) ** 2
    block = np.ix_(core, core)
    Y0 = np.eye(t.n, dtype=complex)
    Y0[block] = forced_outputs(t.gram[block], t.gram[block], np.array([Q]),
                               o[None, core], B[None, core])[0]
    if np.linalg.eigvalsh(Y0[block])[0] < -psd_tol(len(core)):
        return SearchOutcome(None, iv)
    return SearchOutcome(witness_from_overlaps(t, Q, o, _pendant_rows(Y0, anchors, B)), iv)


def translate(t: Text, force_sign: int | None = None) -> TranslationWitness:
    """Decide, construct, and verify a translation of a text.

    Raises Untranslatable(decision) when the classifier refuses, and
    SearchBudgetExhausted, naming the constraints on Q that bind, when
    `force_sign` is a sign of Q the classifier does not admit or when the
    closed-form construction yields no verified witness.  force_sign=0 is
    the sign of Q = 0: `decide_zero_translatable` admits the classical
    texts alone, and they are cloned.  Any other value than None, -1, 0 or
    +1 raises ValueError.  Every route ends in `_finish`.
    """
    return _finish(t, _construct(t, force_sign))


def _finish(t: Text, w: TranslationWitness) -> TranslationWitness:
    """Give a bare witness its unitary and check it once; the check's r1 and
    r3 become its residuals.  Raises SearchBudgetExhausted if it fails.

    The check is `check_witness`'s, on the frames U was built from, with
    `_certified_defect` for the unitarity defect: U's defect bound with the
    remainder taken from the factors when it clears the gate, else the
    defect `check_witness` takes.  So it decides as `check_witness` does."""
    frames = _witness_frames(t, w)
    w.unitary = synthesize_unitary(t, w, frames)
    report = _check(t, w, partial(_certified_defect, frames=frames), frames)
    if not report.passed:
        raise SearchBudgetExhausted(
            f"constructed witness failed verification: r1={report.r1:.3e}, "
            f"r2_ok={report.r2_ok}, r3={report.r3}, unitarity={report.unitarity}")
    w.residuals = {"eq4": report.r1, "eq2": report.r3}
    return w


def _construct(t: Text, force_sign: int | None) -> TranslationWitness:
    """The bare witness that `translate` finishes."""
    if force_sign not in (None, -1, 0, +1):
        raise ValueError(f"force_sign must be None, -1, 0 or +1, got {force_sign!r}")
    decision = decide_zero_translatable(t) if force_sign == 0 else decide_translatable(t)
    if not decision.translatable:
        raise Untranslatable(decision)
    # on a translatable text OK_CLASSICAL is exactly props.classical
    if decision.reason == REASON_OK_CLASSICAL:
        if not force_sign:
            return clone_classical(t)
        # any sign works on an orthogonal family: a tablet orthogonal to
        # every state leaves all output overlaps free
        return witness_from_overlaps(t, force_sign * FORCED_SIGN_Q,
                                     np.zeros(t.n, dtype=complex),
                                     np.eye(t.n, dtype=complex))
    signs = decision.sign_constraint
    if force_sign is not None:
        if force_sign not in signs:
            raise SearchBudgetExhausted(
                f"sign(Q) = {force_sign} is not admissible for this text; "
                f"admissible: {sorted(signs)}")
        signs = frozenset({force_sign})
    return _route(t, decision.decomposition, signs)


def _route(t: Text, parts: WellSplitParts, signs: frozenset[int]) -> TranslationWitness:
    """`_mixed_witness` on `parts` for each of `signs`, + first: the first
    bare witness, or SearchBudgetExhausted naming every sign's refusal."""
    refusals = []
    for sign in sorted(signs, reverse=True):
        out = _mixed_witness(t, list(parts.core), parts.anchors, sign)
        if out.witness is not None:
            return out.witness
        refusals.append(out.refusal(sign))
    raise SearchBudgetExhausted("; ".join(refusals))


@dataclass
class RealizeResult:
    text: Text
    witness: TranslationWitness


def realize_graph(g: SimpleGraph) -> RealizeResult:
    """A translatable text whose overlap graph equals `g` exactly, plus its
    witness with 0 < Q <= 1, deterministically.

    Clique states share a negative overlap z, each pendant overlaps its
    anchor only, and isolated vertices become orthogonal summands.  A graph
    with edges is certified through `_route` with Q > 0 on the parts of the
    one `recognize` call, as in `translate`: its witness is
    `translate(text)`'s.  A graph without edges gets the identity text and
    its own witness, Q = 1 with zero overlaps, while `translate` clones
    that text with Q = 0.
    """
    rec = recognize(g)
    if not g.edges:
        t = validate_text(np.eye(g.n, dtype=complex))
        w = witness_from_overlaps(t, 1.0, np.zeros(g.n, dtype=complex),
                                  np.eye(g.n, dtype=complex))
        return RealizeResult(text=t, witness=_finish(t, w))
    parts = read_well_split(g, rec)
    core = list(parts.core)
    pend, anch = list(parts.anchors), list(parts.anchors.values())
    # eigenvalues are taken on the component with edges alone, sorted
    comp = sorted(core + pend)
    block = np.ix_(comp, comp)
    z = -min(0.1, 0.5 / max(1, len(core) - 1))
    for zi in (0.3 * 0.5 ** j for j in range(60)):
        gram = np.eye(g.n, dtype=complex)
        gram[np.ix_(core, core)] = z
        gram[core, core] = 1.0
        gram[pend, anch] = gram[anch, pend] = zi
        if np.linalg.eigvalsh(gram[block])[0] > 1e-4:
            break
    else:
        raise SynthError("could not realize the graph with a feasible overlap scale")
    text = validate_text(gram)
    if graph_of_text(text) != g:
        raise SynthError("internal: realized text has the wrong overlap graph")
    witness = _finish(text, _route(text, parts, frozenset({+1})))
    return RealizeResult(text=text, witness=witness)

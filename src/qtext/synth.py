"""Constructing translations.

Three construction routes, dispatched by `translate`, all in closed form:

* classical texts are cloned exactly (Q = 0, any target output);
* texts without orthogonal pairs take their tablet overlaps from the
  exceptional eigenvector of the reciprocal Gram matrix (stepped into the
  cone of valid directions when it has a zero entry), the all-ones vector
  on a uniform real text;
* mixed texts translate their complete core with Q > 0 and attach each
  pendant in closed form; isolated states join as a free classical summand.

Q is never searched for.  It is the geometric middle of the |Q| interval of
`_feasible_q`, on which the forced output Gram meets every constraint, and
one `eigvalsh` confirms that Gram.  The builders return bare witnesses (no
unitary, no residuals); `translate` and `realize_graph` end in `_finish`,
which synthesizes the unitary, runs the one `check_witness` and stores its
r1 and r3 as the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy  # unused here; perfbench/tracing.py patches synth.scipy.optimize

from .texts import (
    DISTINCT_TOL,
    Text,
    SizeMismatch,
    _orthogonal,
    psd_tol,
    subtext,
    text_properties,
    validate_text,
)
from .graphs import SimpleGraph, graph_of_text, read_well_split, recognize
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
    _embedding_for_tablet,
    check_witness,
    forced_outputs,
    synthesize_unitary,
    tablet_overlaps,
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


class NotUniformRealEfficient(SynthError):
    pass


class QTooLarge(SynthError):
    pass


class BadOverlapPattern(SynthError):
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
    """A route's result for one sign of Q: a bare witness or None; the
    feasible |Q| interval of its overlap direction (None without one); and
    the number of output Grams built and checked, 0 or 1."""

    witness: TranslationWitness | None
    interval: QInterval | None
    evaluations: int

    def refusal(self, sign: int) -> str:
        """Why there is no witness, naming the constraints that bind."""
        why = ("no overlap direction" if self.interval is None
               else f"no feasible Q, {self.interval}" if self.evaluations == 0
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
    iu = np.triu_indices(t.n, 1)
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


def _eigen_overlaps(t: Text, sign: int) -> tuple[np.ndarray | None, QInterval | None]:
    """Overlap direction a from the exceptional eigenvector of M = 1 ./ z,
    and its `_feasible_q` interval, whose PSD end -w^H M^+ w, w = 1 ./ a,
    comes from the same eigendecomposition without the eigenvalues inside
    the zero band of the signature test.

    For sign(Q) = +1 the relevant eigenvector u belongs to the smallest
    eigenvalue, for -1 to the largest; M is semidefinite of sign sign(Q)
    on the hyperplane orthogonal to u, and entrywise inversion of u makes
    the constraint subspace of the output Gram match the sign condition.

    When u has a (near-)zero entry, w is a nearby direction with no such
    entry:

    * M invertible: any w with sign * (w* M^-1 w) < 0 serves, since by
      Haynsworth inertia additivity on [[M, w], [w*, 0]] M is then
      definite of sign sign(Q) on the hyperplane orthogonal to w.  The
      step w = u + s 1 enters that open cone, with s = 1e-2 max|u| halved
      up to 40 times until w qualifies.
    * M singular: w = u + 1e-2 v, with v the eigenvector of the opposite
      extreme eigenvalue.  The hyperplane orthogonal to w holds every other
      eigenvector and 1e-2 u - v, whose Rayleigh quotient is proportional
      to 1e-4 lam_u + lam_v, of sign sign(Q) while |lam_v| > 1e-4 |lam_u|;
      so the compression of M to it is semidefinite of sign sign(Q), with
      the null vectors of M in its kernel.  By Cauchy interlacing no hyperplane
      does better than semidefinite, and the output Gram is singular.

    Returns (None, None) when no step qualifies.
    """
    M = 1.0 / t.gram
    lam, vec = np.linalg.eigh((M + M.conj().T) / 2.0)
    u, v = (vec[:, 0], vec[:, -1]) if sign > 0 else (vec[:, -1], vec[:, 0])
    band = np.abs(lam) <= SIGNATURE_SCALE * np.max(np.abs(lam))

    def no_zero_entry(w):
        return np.min(np.abs(w)) >= 1e-10 * np.max(np.abs(w))

    if no_zero_entry(u):
        w = u
    elif band.any():
        w = u + 1e-2 * v
    else:
        s = 1e-2 * np.max(np.abs(u))
        for _ in range(41):
            w = u + s
            form = float(np.sum(np.abs(vec.conj().T @ w) ** 2 / lam))
            if sign * form < 0 and no_zero_entry(w):
                break
            s *= 0.5
        else:
            return None, None
    if not no_zero_entry(w):
        return None, None
    a = 1.0 / w
    # scaled so that the minimal tablet realizing a is unit
    s2 = float(np.real(np.vdot(a, np.linalg.solve(t.gram, a))))
    if s2 <= 0:
        raise TranslationError("degenerate overlap direction")
    a = a / np.sqrt(s2)
    q_psd = -float(np.sum(np.abs(vec[:, ~band].conj().T @ (1.0 / a)) ** 2 / lam[~band]))
    return a, _feasible_q(t, a, sign, q_psd)


def _at_middle(t: Text, sign: int, a: np.ndarray,
               iv: QInterval) -> tuple[float, np.ndarray] | None:
    """Q = sign sqrt(lo hi), the geometric middle of `iv`, and its forced
    output Gram; None when `iv` is empty or one eigvalsh finds the Gram
    below validate_text's floor of -psd_tol(n)."""
    if iv.empty:
        return None
    Q = sign * float(np.sqrt(iv.lo * iv.hi))
    Y = forced_outputs(t.gram, t.gram, np.array([Q]), a[None, :],
                       1.0 + Q * np.abs(a[None, :]) ** 2)[0]
    return None if np.linalg.eigvalsh(Y)[0] < -psd_tol(t.n) else (Q, Y)


def search_translation(t: Text, sign: int) -> SearchOutcome:
    """Closed-form witness with the given sign of Q for an efficient text
    without orthogonal pairs: the eigenvector route at the middle of its
    feasible |Q| interval.

    The witness is bare and unchecked.  A None witness never claims
    untranslatability; for a sign the classifier admits it is not expected
    at all, and `SearchOutcome.refusal` names the constraints that bind.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    props = text_properties(t)
    if not (props.efficient and props.fully_quantum):
        raise SynthError("search needs an efficient text without orthogonal pairs")
    a, iv = _eigen_overlaps(t, sign)
    if a is None:
        return SearchOutcome(None, None, 0)
    out = _at_middle(t, sign, a, iv)
    w = None if out is None else witness_from_overlaps(t, out[0], a, out[1])
    return SearchOutcome(w, iv, int(not iv.empty))


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


def central_translate_uniform(t: Text) -> TranslationWitness:
    """Closed-form translation of a uniform real efficient text.

    The eigenvector route with sign(Q) = -sign(z): the exceptional
    eigenvector of 1 ./ z is all-ones, so the tablet overlaps every state by
    the same c, and the output is uniform, y = (1 + Q c^2 / z) / (1 + Q c^2).
    The witness is bare: no unitary, no residuals.
    """
    props = text_properties(t)
    if t.n < 2 or props.classical or not (props.uniform and props.real_text
                                          and props.efficient):
        raise NotUniformRealEfficient(
            "central translation needs a uniform real efficient text with z != 0")
    sign = -1 if t.gram[0, 1].real > 0 else +1
    out = search_translation(t, sign)
    if out.witness is None:
        raise SearchBudgetExhausted(out.refusal(sign))
    return out.witness


def _pendant_rows(Y0: np.ndarray, anchors: dict[int, int], B: np.ndarray) -> np.ndarray:
    """Y0, the output Gram of the other states, with each pendant's output
    its anchor's over sqrt(B_anchor) plus a fresh orthogonal part; pendants
    of one anchor overlap by 1 / B_anchor."""
    r, d = np.arange(len(Y0)), np.ones(len(Y0))
    pend = list(anchors)
    r[pend] = list(anchors.values())
    d[pend] = 1.0 / np.sqrt(B[r[pend]])
    Y = d[:, None] * Y0[np.ix_(r, r)] * d[None, :]
    np.fill_diagonal(Y, 1.0)
    return Y


def attach_classical(base_witness: TranslationWitness, t_new: Text) -> TranslationWitness:
    """Extend a witness on t_new without its last state to t_new; that state
    phi must overlap exactly one earlier state, the anchor.

    The new tablet is alpha * psi_0 + beta * (phi - P phi), with alpha fixed
    by unit norm and beta by <phi|psi_0'> = 0: alpha times the old overlaps
    and 0 with phi, with rho = |phi - P phi| > 0.  Q grows to Q / alpha^2,
    which must stay <= 1, and every B_i stays.
    """
    n = t_new.n - 1
    nz = np.flatnonzero(~_orthogonal(t_new.gram[n, :n])).tolist()
    if len(nz) != 1:
        raise BadOverlapPattern(
            f"new state must overlap exactly one state; nonzero at {nz}")
    Q = base_witness.Q
    if not Q > 0:
        raise SynthError("attachment requires a base witness with Q > 0")
    base = subtext(t_new, range(n))
    o = tablet_overlaps(_embedding_for_tablet(base, len(base_witness.tablet)),
                        np.asarray(base_witness.tablet, dtype=complex))
    zn = t_new.gram[:n, n]
    c = np.linalg.solve(base.gram, np.column_stack([o, zn]))
    if 1.0 - float(np.real(np.vdot(zn, c[:, 1]))) <= 1e-12:
        raise TranslationError("new state lies in the span of the base text")
    # 1 / alpha^2 = 1 + |<phi|P psi_0>|^2 / rho^2, growth of the span part
    s2_old = min(1.0, float(np.real(np.vdot(o, c[:, 0]))))
    o = np.append(o, 0.0)
    alpha2 = 1.0 / (1.0 + float(np.real(np.vdot(o, np.linalg.solve(t_new.gram, o)))) - s2_old)
    if Q / alpha2 > 1.0 + 1e-12:
        raise QTooLarge(f"Q grows to {Q / alpha2:.6f} > 1 at this attachment")
    Y0 = np.eye(n + 1, dtype=complex)
    Y0[:n, :n] = base_witness.output_gram
    Y = _pendant_rows(Y0, {n: nz[0]}, 1.0 + Q * np.abs(o) ** 2)
    return witness_from_overlaps(t_new, min(Q / alpha2, 1.0), np.sqrt(alpha2) * o, Y)


def _mixed_witness(t: Text, core: list[int], anchors: dict[int, int],
                   sign: int) -> SearchOutcome:
    """The route for a complete core with pendants or isolated states: the
    core's eigenvector route and a chain of `attach_classical` steps, one
    per pendant, in closed form, as one bare witness on the whole text.

    The chain ends in the unit tablet with overlaps (a, 0) / sqrt(F) at
    Q_core F, a the core's span-normalized overlaps (so no pad) and
    F = (a, 0)^H z^-1 (a, 0).  That cuts the core's interval at
    Q_core F <= 1 ("chain"), and where a pendant's output overlap with its
    anchor, 1 / sqrt(B_anchor), would reach 1 - DISTINCT_TOL ("pendant").
    Isolated states keep zero overlap and a fresh output.
    """
    t_core = subtext(t, core)
    a, iv = _eigen_overlaps(t_core, sign)
    if a is None:
        return SearchOutcome(None, None, 0)
    o = np.zeros(t.n, dtype=complex)
    o[core] = a
    F = float(np.real(np.vdot(o, np.linalg.solve(t.gram, o))))
    low = np.min(np.abs(o[list(anchors.values())]) ** 2, initial=np.inf)
    iv = iv.below(1.0 / F, "chain").above(PENDANT_FLOOR / low, "pendant")
    out = _at_middle(t_core, sign, a, iv)
    if out is None:
        return SearchOutcome(None, iv, int(not iv.empty))
    Q, Y0 = out[0], np.eye(t.n, dtype=complex)
    Y0[np.ix_(core, core)] = out[1]
    Y = _pendant_rows(Y0, anchors, 1.0 + Q * np.abs(o) ** 2)
    w = witness_from_overlaps(t, float(np.clip(Q * F, -1.0, 1.0)), o / np.sqrt(F), Y)
    return SearchOutcome(w, iv, 1)


def translate(t: Text, force_sign: int | None = None,
              q0: bool = False) -> TranslationWitness:
    """Decide, construct, and verify a translation of a text.

    Raises Untranslatable(decision) when the classifier refuses, and
    SearchBudgetExhausted, naming the constraints on Q that bind, when
    `force_sign` is a sign of Q the classifier does not admit or when the
    closed-form construction yields no verified witness.  With q0=True only
    classical texts are accepted and the clone construction is used; it
    excludes `force_sign` (ValueError).  Every route ends in `_finish`.
    """
    if q0 and force_sign is not None:
        raise ValueError("q0 and force_sign exclude each other")
    return _finish(t, _construct(t, force_sign, q0))


def _finish(t: Text, w: TranslationWitness) -> TranslationWitness:
    """Give a bare witness its unitary and check it once; the check's r1 and
    r3 become its residuals.  Raises SearchBudgetExhausted if it fails."""
    w.unitary = synthesize_unitary(t, w)
    report = check_witness(t, w)
    if not report.passed:
        raise SearchBudgetExhausted(
            f"constructed witness failed verification: r1={report.r1:.3e}, "
            f"r2_ok={report.r2_ok}, r3={report.r3}, unitarity={report.unitarity}")
    w.residuals = {"eq4": report.r1, "eq2": report.r3}
    return w


def _construct(t: Text, force_sign: int | None, q0: bool) -> TranslationWitness:
    """The bare witness that `translate` finishes."""
    if q0:
        d = decide_zero_translatable(t)
        if not d.translatable:
            raise Untranslatable(d)
        return clone_classical(t)
    decision = decide_translatable(t)
    if not decision.translatable:
        raise Untranslatable(decision)
    # on a translatable text OK_CLASSICAL is exactly props.classical
    if decision.reason == REASON_OK_CLASSICAL:
        if force_sign is None:
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
    core, refusals = list(decision.decomposition.core), []
    for sign in sorted(signs, reverse=True):
        if len(core) == t.n:
            out = search_translation(t, sign)
        else:
            out = _mixed_witness(t, core, decision.decomposition.anchors, sign)
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
    witness with 0 < Q <= 1.

    Clique states share a negative overlap z, each pendant overlaps its
    anchor only, and isolated vertices become orthogonal summands.  The
    construction is deterministic.
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
    # the component with edges, in sorted order: eigenvalues and the tablet
    # norm are taken on its block alone
    comp = sorted(core + pend)
    block = np.ix_(comp, comp)

    z0 = -min(0.1, 0.5 / max(1, len(core) - 1))
    for z in (z0 * 0.5 ** i for i in range(60)):
        for zi in (0.3 * 0.5 ** j for j in range(60)):
            gram = np.eye(g.n, dtype=complex)
            gram[np.ix_(core, core)] = z
            gram[core, core] = 1.0
            gram[pend, anch] = gram[anch, pend] = zi
            if np.linalg.eigvalsh(gram[block])[0] > 1e-4:
                break
        else:
            continue
        o_full = np.zeros(g.n, dtype=complex)
        o_full[core] = np.sqrt(-z)
        o_local = o_full[comp]
        s2 = float(np.real(np.vdot(o_local, np.linalg.solve(gram[block], o_local))))
        if s2 <= 0.81:
            break
    else:
        raise SynthError("could not realize the graph with a feasible overlap scale")

    # B at every anchor is 1 + Q * t^2 = 1 - z; pendants of one anchor
    # overlap by 1 / B, a pendant and its anchor by 1 / sqrt(B)
    inv_b = 1.0 / (1.0 - z)
    Y_full = np.eye(g.n, dtype=complex)
    Y_full[np.ix_(pend, pend)] = np.where(np.equal.outer(anch, anch), inv_b, 0.0)
    Y_full[pend, pend] = 1.0
    Y_full[pend, anch] = Y_full[anch, pend] = np.sqrt(inv_b)

    text = validate_text(gram)
    if graph_of_text(text) != g:
        raise SynthError("internal: realized text has the wrong overlap graph")
    witness = witness_from_overlaps(text, 1.0, o_full, Y_full)
    return RealizeResult(text=text, witness=_finish(text, witness))

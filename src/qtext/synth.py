"""Constructing translations.

Four construction routes, dispatched by `translate`, all in closed form:

* classical texts are cloned exactly (Q = 0, any target output);
* uniform real texts get the closed-form central translation;
* texts without orthogonal pairs take their tablet overlaps from the
  exceptional eigenvector of the reciprocal Gram matrix (stepped into the
  cone of valid directions when that eigenvector has a zero entry);
* mixed texts translate their complete core with Q > 0 and then absorb the
  pendant states one attachment at a time; isolated states join as a free
  classical summand at the end.

The builders return bare witnesses: no unitary and no residuals.
`translate` and `realize_graph` end in one finishing step, `_finish`, which
synthesizes the unitary, runs the one `check_witness` and stores its r1 and
r3 as the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy  # unused here; perfbench/tracing.py patches synth.scipy.optimize

from .texts import (
    Text,
    SizeMismatch,
    embed_text,
    psd_tol,
    subtext,
    text_properties,
    uniform_real_flags,
    validate_text,
)
from .graphs import (
    GraphClass,
    SimpleGraph,
    graph_of_text,
    recognize,
    NotWellSplit,
)
from .classify import (
    REASON_OK_CLASSICAL,
    SIGNATURE_SCALE,
    Decision,
    _core_and_pendants,
    decide_translatable,
    decide_zero_translatable,
)
from .translation import (
    TranslationWitness,
    TranslationError,
    _embedding_for_tablet,
    check_witness,
    q_from_Q,
    synthesize_unitary,
    tablet_overlaps,
    witness_from_overlaps,
    B_FLOOR,
)

Q_START = 0.05
PENALTY_SUCCESS = 1e-16
MODULUS_CAP = 1.0 - 1e-6


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


@dataclass
class SearchOutcome:
    """Result of the eigenvector route for one sign of Q: a witness or
    None, the best penalty seen and the number of forced outputs tried."""

    witness: TranslationWitness | None
    best_penalty: float
    evaluations: int


def _penalty(Y: np.ndarray, lam_min: float) -> float:
    """max(0, -lam_min)^2 plus squared modulus excesses over 1 - 1e-6."""
    p = max(0.0, -lam_min) ** 2
    n = Y.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            p += max(0.0, abs(Y[i, j]) - MODULUS_CAP) ** 2
    return p


def _forced_output(t: Text, Q: float, a: np.ndarray) -> np.ndarray | None:
    """Output Gram forced by overlaps `a` at parameter Q; None if B degenerates.

    Valid only for texts without orthogonal pairs (every entry forced).
    """
    B = 1.0 + Q * np.abs(a) ** 2
    if np.min(B) <= B_FLOOR:
        return None
    n = t.n
    Y = np.eye(n, dtype=complex)
    scale = np.sqrt(np.outer(B, B))
    for i in range(n):
        for j in range(i + 1, n):
            y = (1.0 + Q * a[i] * np.conj(a[j]) / t.gram[i, j]) / scale[i, j]
            Y[i, j] = y
            Y[j, i] = np.conj(y)
    return Y


def _span_normalize(t: Text, a: np.ndarray) -> np.ndarray:
    """Scale an overlap vector so the minimal tablet realizing it is unit."""
    coeff = np.linalg.solve(t.gram, a)
    s2 = float(np.real(np.vdot(a, coeff)))
    if s2 <= 0:
        raise TranslationError("degenerate overlap direction")
    return a / np.sqrt(s2)


def _eigen_overlaps(t: Text, sign: int) -> np.ndarray | None:
    """Overlap direction from the exceptional eigenvector of M = 1 ./ z.

    For sign(Q) = +1 the relevant eigenvector u belongs to the smallest
    eigenvalue, for -1 to the largest; M is semidefinite of sign sign(Q)
    on the hyperplane orthogonal to u, and entrywise inversion of u makes
    the constraint subspace of the output Gram match the sign condition.

    When u has a (near-)zero entry the overlaps are 1 ./ w for a nearby
    direction w with no such entry:

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

    Returns None when no step qualifies.
    """
    M = 1.0 / t.gram
    lam, vec = np.linalg.eigh((M + M.conj().T) / 2.0)
    u, v = (vec[:, 0], vec[:, -1]) if sign > 0 else (vec[:, -1], vec[:, 0])

    def no_zero_entry(w):
        return np.min(np.abs(w)) >= 1e-10 * np.max(np.abs(w))

    if no_zero_entry(u):
        return 1.0 / u
    if np.min(np.abs(lam)) <= SIGNATURE_SCALE * np.max(np.abs(lam)):
        w = u + 1e-2 * v
        return 1.0 / w if no_zero_entry(w) else None
    s = 1e-2 * np.max(np.abs(u))
    for _ in range(41):
        w = u + s
        form = float(np.sum(np.abs(vec.conj().T @ w) ** 2 / lam))
        if sign * form < 0 and no_zero_entry(w):
            return 1.0 / w
        s *= 0.5
    return None


def _delta_schedule(start: float, max_q: float):
    """Geometric shrink from `start`, then geometric growth up to `max_q`."""
    for k in range(41):
        yield start * 0.5 ** k
    d = start * 2.0
    while d <= max_q + 1e-15:
        yield min(d, 1.0)
        d *= 2.0


def _fully_quantum_overlaps(t: Text, sign: int, start: float = Q_START,
                            max_q: float = 1.0) -> SearchOutcome:
    """Eigenvector overlaps at the first Q of the schedule whose forced
    output Gram passes the penalty and the PSD floor of `validate_text`,
    for a text without orthogonal pairs.

    The witness carries no unitary and is unchecked; it is None when the
    eigenvector route gives no direction or no step of Q passes.
    """
    a = _eigen_overlaps(t, sign)
    best, evaluations = np.inf, 0
    if a is not None:
        a = _span_normalize(t, a)
        for delta in _delta_schedule(start, max_q):
            evaluations += 1
            Y = _forced_output(t, sign * delta, a)
            if Y is None:
                continue
            lam_min = float(np.linalg.eigvalsh(Y)[0])
            p = _penalty(Y, lam_min)
            best = min(best, p)
            # the penalty alone lets lam_min reach -1e-8; the output Gram
            # must also clear validate_text's floor of -psd_tol(n)
            if p <= PENALTY_SUCCESS and lam_min >= -psd_tol(t.n):
                w = witness_from_overlaps(t, sign * delta, a, Y)
                return SearchOutcome(w, float(best), evaluations)
    return SearchOutcome(None, float(best), evaluations)


def search_translation(t: Text, sign: int) -> SearchOutcome:
    """Closed-form witness with the given sign of Q for an efficient text
    without orthogonal pairs.

    The witness is `_fully_quantum_overlaps`'s, bare and unchecked.  A
    None witness never claims untranslatability; for a sign the classifier
    admits it is not expected at all.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    props = text_properties(t)
    if not (props.efficient and props.fully_quantum):
        raise SynthError("search needs an efficient text without orthogonal pairs")
    return _fully_quantum_overlaps(t, sign)


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


def central_translate_uniform(t: Text, eps_overlap: float = 0.25) -> TranslationWitness:
    """Closed-form translation of a uniform real efficient text.

    The tablet has the same overlap c with every state, so the output is
    uniform with y = (1 + Q c^2 / z) / (1 + Q c^2), feasible for small |Q|
    of sign -sign(z).  The witness is bare: no unitary, no residuals.
    """
    props = text_properties(t)
    if t.n < 2 or props.classical or not (props.uniform and props.real_text
                                          and props.efficient):
        raise NotUniformRealEfficient(
            "central translation needs a uniform real efficient text with z != 0")
    n = t.n
    z = float(t.gram[0, 1].real)
    sigma = 1.0 + (n - 1) * z
    c = min(float(eps_overlap), 0.8 * np.sqrt(sigma / n))
    overlaps = np.full(n, c, dtype=complex)
    sign = -1.0 if z > 0 else 1.0
    for delta in _delta_schedule(Q_START, 1.0):
        Q = sign * delta
        B = 1.0 + Q * c * c
        if B <= B_FLOOR:
            continue
        y = (1.0 + Q * c * c / z) / B
        if abs(y) > MODULUS_CAP or min(1.0 + (n - 1) * y, 1.0 - y) < 1e-12:
            continue
        Y = np.full((n, n), complex(y))
        np.fill_diagonal(Y, 1.0)
        return witness_from_overlaps(t, Q, overlaps, Y)
    raise SynthError("no feasible Q found for the central translation")


def attach_classical(base_witness: TranslationWitness, base_text: Text,
                     phi_overlaps, anchor: int) -> TranslationWitness:
    """Extend a witness by one state orthogonal to all but one current state.

    phi_overlaps[k] = <phi|psi_k> must vanish except at `anchor`.  The new
    tablet is alpha * psi_0 + beta * (phi - P phi), with alpha fixed by
    unit norm and beta by <phi|psi_0'> = 0; the parameter grows to
    Q' = Q / alpha^2, so Q must have been small enough to keep Q' <= 1.
    The enlarged text is the base text with phi appended last.
    """
    n = base_text.n
    row = np.asarray(phi_overlaps, dtype=complex)
    if row.shape != (n,):
        raise BadOverlapPattern(f"expected {n} overlaps, got {row.shape}")
    if not (0 <= anchor < n):
        raise BadOverlapPattern(f"anchor {anchor} out of range")
    nz = [k for k in range(n) if abs(row[k]) > 1e-9]
    if nz != [anchor]:
        raise BadOverlapPattern(
            f"new state must overlap exactly the anchor; nonzero at {nz}")
    Q2 = base_witness.Q
    if not Q2 > 0:
        raise SynthError("attachment requires a base witness with Q > 0")

    gram_new = np.zeros((n + 1, n + 1), dtype=complex)
    gram_new[:n, :n] = base_text.gram
    gram_new[n, :n] = row
    gram_new[:n, n] = row.conj()
    gram_new[n, n] = 1.0
    t_new = validate_text(gram_new)

    emb_base = _embedding_for_tablet(base_text, len(base_witness.tablet))
    o_old = tablet_overlaps(emb_base, np.asarray(base_witness.tablet, dtype=complex))

    emb_new = embed_text(t_new, pad_extra_dim=True)
    span = emb_new.vectors[:-1, :]
    E_old = span[:, :n]
    phi = span[:, n]
    G2 = base_text.gram
    coeff = np.linalg.solve(G2, o_old)
    tau_span = E_old @ coeff
    s2_old = float(np.real(np.vdot(o_old, coeff)))
    pad_old = np.sqrt(max(0.0, 1.0 - s2_old))
    v = phi - E_old @ np.linalg.solve(G2, gram_new[:n, n])
    rho2 = float(np.real(np.vdot(v, v)))
    if rho2 <= 1e-12:
        raise TranslationError("new state lies in the span of the base text")
    g = complex(np.vdot(phi, tau_span))
    alpha = 1.0 / np.sqrt(1.0 + abs(g) ** 2 / rho2)
    beta = -alpha * g / rho2
    Q_new = Q2 / alpha ** 2
    if Q_new > 1.0 + 1e-12:
        raise QTooLarge(f"Q grows to {Q_new:.6f} > 1 at this attachment")
    Q_new = min(Q_new, 1.0)

    tablet = np.concatenate([alpha * tau_span + beta * v, [alpha * pad_old]])
    tablet = tablet / np.linalg.norm(tablet)
    B_anchor = 1.0 + Q2 * abs(o_old[anchor]) ** 2

    Y2 = np.asarray(base_witness.output_gram, dtype=complex)
    Y_new = np.zeros((n + 1, n + 1), dtype=complex)
    Y_new[:n, :n] = Y2
    Y_new[n, :n] = Y2[anchor, :] / np.sqrt(B_anchor)
    Y_new[:n, n] = Y_new[n, :n].conj()
    Y_new[n, n] = 1.0

    return TranslationWitness(Q=float(Q_new), q=q_from_Q(Q_new), tablet=tablet,
                              output_gram=Y_new)


def _scatter_witness(t: Text, order: list[int],
                     w_local: TranslationWitness) -> TranslationWitness:
    """Spread a witness on subtext(t, order) over the full text, as a bare
    witness.

    States outside `order` must be orthogonal to everything; they keep
    zero tablet overlap and get fresh orthonormal outputs.
    """
    emb_local = _embedding_for_tablet(subtext(t, order), len(w_local.tablet))
    o_local = tablet_overlaps(emb_local, np.asarray(w_local.tablet, dtype=complex))
    o_full = np.zeros(t.n, dtype=complex)
    o_full[order] = o_local
    Y_full = np.eye(t.n, dtype=complex)
    Y_full[np.ix_(order, order)] = w_local.output_gram
    return witness_from_overlaps(t, w_local.Q, o_full, Y_full)


def _mixed_witness(t: Text, core: list[int], pendants: list[int],
                   attachment: dict[int, int]) -> tuple[list[int], TranslationWitness]:
    """Chain of attachments over the core witness, shrinking Q on overflow."""
    t_core = subtext(t, core)
    start = Q_START
    for _ in range(60):
        w_cur = _fully_quantum_overlaps(t_core, +1, start=start, max_q=start).witness
        if w_cur is None:
            raise SearchBudgetExhausted(
                "no positive-Q witness found for the complete core")
        order = list(core)
        t_cur = t_core
        try:
            for p in pendants:
                anchor_pos = order.index(attachment[p])
                w_cur = attach_classical(w_cur, t_cur, t.gram[p, order], anchor_pos)
                order.append(p)
                t_cur = subtext(t, order)
            rep = check_witness(t_cur, w_cur)
            if rep.passed:
                return order, w_cur
        except QTooLarge:
            pass
        start /= 2.0
    raise SearchBudgetExhausted("attachment chain kept overflowing Q = 1")


def translate(t: Text, force_sign: int | None = None,
              q0: bool = False) -> TranslationWitness:
    """Decide, construct, and verify a translation of a text.

    Raises Untranslatable(decision) when the classifier refuses, and
    SearchBudgetExhausted when `force_sign` is a sign of Q the classifier
    does not admit or when the closed-form construction yields no verified
    witness (not expected on a text the classifier accepts).  With q0=True
    only classical texts are accepted and the clone construction is used.
    Every route ends in `_finish`.
    """
    return _finish(t, _construct(t, force_sign, q0))


def _finish(t: Text, w: TranslationWitness) -> TranslationWitness:
    """Give a bare witness its unitary and check it once; the check's r1 and
    r3 become its residuals.  Raises SearchBudgetExhausted if it fails."""
    w.unitary = synthesize_unitary(t, w)
    report = check_witness(t, w)
    if not report.passed:
        raise SearchBudgetExhausted(
            f"constructed witness failed verification: r1={report.r1:.3e}, "
            f"r2_ok={report.r2_ok}, r3={report.r3}")
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
        return witness_from_overlaps(t, force_sign * Q_START,
                                     np.zeros(t.n, dtype=complex),
                                     np.eye(t.n, dtype=complex))
    signs = decision.sign_constraint
    if force_sign is not None:
        if force_sign not in signs:
            raise SearchBudgetExhausted(
                f"sign(Q) = {force_sign} is not admissible for this text; "
                f"admissible: {sorted(signs)}")
        signs = frozenset({force_sign})
    decomp = decision.decomposition
    pendants = sorted(decomp.attachment)
    core = sorted(decomp.quantum_part)
    isolated = decomp.classical_part - set(decomp.attachment)

    if not pendants:
        t_core = subtext(t, core)
        # the decision found the core efficient: only its shape is new
        uniform, real_text = uniform_real_flags(t_core)
        if uniform and real_text and force_sign is None:
            w_core = central_translate_uniform(t_core)
        else:
            for sign in sorted(signs, reverse=True):
                out = search_translation(t_core, sign)
                if out.witness is not None:
                    break
            else:
                raise SearchBudgetExhausted(
                    f"construction failed; best penalty {out.best_penalty:.3e} "
                    f"after {out.evaluations} evaluations")
            w_core = out.witness
        return _scatter_witness(t, core, w_core) if isolated else w_core
    # the chain's order: core first, then pendants in attachment order
    order, w_chain = _mixed_witness(t, core, pendants, decomp.attachment)
    return _scatter_witness(t, order, w_chain)


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
    if rec.klass not in (GraphClass.INDEPENDENT, GraphClass.WELL_SPLIT):
        raise NotWellSplit(f"graph is {rec.klass.value}")
    if not g.edges:
        t = validate_text(np.eye(g.n, dtype=complex))
        w = witness_from_overlaps(t, 1.0, np.zeros(g.n, dtype=complex),
                                  np.eye(g.n, dtype=complex))
        return RealizeResult(text=t, witness=_finish(t, w))
    # the component with edges: the core and its pendants, in sorted order
    core, attach = _core_and_pendants(g, rec)
    comp = sorted(core + list(attach))
    pos = {v: i for i, v in enumerate(comp)}
    clique_local = [pos[v] for v in core]
    pends_local: dict[int, list[int]] = {}
    for v, anchor in attach.items():
        pends_local.setdefault(pos[anchor], []).append(pos[v])
    n2 = len(core)
    k = len(comp)

    z = -min(0.1, 0.5 / max(1, n2 - 1))
    for _ in range(60):
        zi = 0.3
        gram_local = None
        for _ in range(60):
            cand = np.eye(k, dtype=complex)
            for a in range(n2):
                for b in range(a + 1, n2):
                    cand[clique_local[a], clique_local[b]] = z
                    cand[clique_local[b], clique_local[a]] = z
            for w_i, vs in pends_local.items():
                for v in vs:
                    cand[v, w_i] = zi
                    cand[w_i, v] = zi
            if np.linalg.eigvalsh(cand)[0] > 1e-4:
                gram_local = cand
                break
            zi *= 0.5
        if gram_local is None:
            z *= 0.5
            continue
        tval = np.sqrt(-z)
        o_local = np.zeros(k, dtype=complex)
        o_local[clique_local] = tval
        s2 = float(np.real(np.vdot(o_local, np.linalg.solve(gram_local, o_local))))
        if s2 > 0.81:
            z *= 0.5
            continue
        break
    else:
        raise SynthError("could not realize the graph with a feasible overlap scale")

    Y_local = np.eye(k, dtype=complex)
    inv_b = 1.0 / (1.0 - z)  # B at every anchor is 1 + Q * t^2 = 1 - z
    for w_i, vs in pends_local.items():
        for v in vs:
            Y_local[v, w_i] = Y_local[w_i, v] = np.sqrt(inv_b)
        for a in range(len(vs)):
            for b in range(a + 1, len(vs)):
                Y_local[vs[a], vs[b]] = Y_local[vs[b], vs[a]] = inv_b

    gram_full = np.eye(g.n, dtype=complex)
    gram_full[np.ix_(comp, comp)] = gram_local
    o_full = np.zeros(g.n, dtype=complex)
    o_full[comp] = o_local
    Y_full = np.eye(g.n, dtype=complex)
    Y_full[np.ix_(comp, comp)] = Y_local

    text = validate_text(gram_full)
    if graph_of_text(text) != g:
        raise SynthError("internal: realized text has the wrong overlap graph")
    witness = witness_from_overlaps(text, 1.0, o_full, Y_full)
    return RealizeResult(text=text, witness=_finish(text, witness))

"""Text generators and the random feasibility probe."""

import hashlib

import numpy as np
import pytest

from qtext import (
    GenSpec,
    InfeasibleSpec,
    check_witness,
    decide_translatable,
    gen_text,
    graph_of_text,
    hadamard_inverse_signature,
    make_graph,
    oracle_feasible,
    text_properties,
    validate_text,
)
from qtext.generators import MODULUS_CAP, OracleReport, _prune_consts, _skipped
from qtext.texts import embed_text, null_index_set, psd_tol
from qtext.translation import TranslationWitness, overlap_residual, q_from_Q
from tests.conftest import uniform_gram


class TestGenText:
    def test_random_efficient_properties(self):
        for seed in range(10):
            t = gen_text(GenSpec(mode="random_efficient", n=4, seed=seed))
            p = text_properties(t)
            assert p.efficient
            assert t.n == 4

    def test_random_efficient_deterministic(self):
        a = gen_text(GenSpec(mode="random_efficient", n=3, seed=7))
        b = gen_text(GenSpec(mode="random_efficient", n=3, seed=7))
        np.testing.assert_array_equal(a.gram, b.gram)
        c = gen_text(GenSpec(mode="random_efficient", n=3, seed=8))
        assert np.max(np.abs(a.gram - c.gram)) > 1e-6

    def test_uniform_mode(self):
        t = gen_text(GenSpec(mode="uniform", n=5, seed=0, z=0.3))
        np.testing.assert_allclose(t.gram, uniform_gram(5, 0.3), atol=1e-15)

    def test_uniform_mode_random_z(self):
        t = gen_text(GenSpec(mode="uniform", n=4, seed=2))
        p = text_properties(t)
        assert p.uniform and p.efficient

    def test_uniform_rejects_bad_z(self):
        with pytest.raises(InfeasibleSpec):
            gen_text(GenSpec(mode="uniform", n=3, seed=0, z=-0.5))
        with pytest.raises(InfeasibleSpec):
            gen_text(GenSpec(mode="uniform", n=3, seed=0, z=1.0))

    def test_from_graph_matches_pattern(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        t = gen_text(GenSpec(mode="from_graph", seed=1, graph=g))
        assert graph_of_text(t) == g

    def test_from_graph_requires_graph(self):
        with pytest.raises(InfeasibleSpec):
            gen_text(GenSpec(mode="from_graph", seed=0))

    def test_untranslatable4_inertia(self):
        for seed in (0, 1, 2):
            t = gen_text(GenSpec(mode="untranslatable4", seed=seed))
            sig = hadamard_inverse_signature(t)
            assert (sig.n_pos, sig.n_neg) == (2, 2)
            assert not decide_translatable(t).translatable

    def test_unknown_mode(self):
        with pytest.raises(InfeasibleSpec):
            gen_text(GenSpec(mode="bogus", n=3, seed=0))


class TestOracle:
    def test_classical_found_at_probe(self):
        # the deterministic Q = 0 probe accepts any orthogonal family
        r = oracle_feasible(validate_text(np.eye(3)), samples=10, seed=0)
        assert r.found and r.samples == 1
        assert r.witness.Q == 0.0

    def test_uniform_found(self, uniform3):
        r = oracle_feasible(uniform3, samples=50000, seed=0)
        assert r.found
        assert r.accepted_Q[0] < 0
        rep = check_witness(uniform3, r.witness)
        assert rep.passed

    def test_all_accepted_Q_negative(self, uniform3):
        r = oracle_feasible(uniform3, samples=30000, seed=1, keep_all=True)
        assert r.found
        assert len(r.accepted_Q) > 1
        assert all(Q < 0 for Q in r.accepted_Q)

    def test_first_acceptance_computes_its_residual_once(self, uniform3, count_calls):
        # the gate's r1 is the witness's residuals["eq4"]
        calls = count_calls(overlap_residual)
        r = oracle_feasible(uniform3, samples=50000, seed=0)
        assert r.found and len(r.accepted_Q) == 1
        assert len(calls) == 1
        assert r.witness.residuals["eq4"] <= 1e-8

    def test_untranslatable_never_found(self):
        from qtext import GenSpec, gen_text
        t = gen_text(GenSpec(mode="untranslatable4", seed=0))
        r = oracle_feasible(t, samples=10000, seed=0)
        assert not r.found
        assert r.witness is None
        assert r.best_penalty > 0

    def test_two_k2_pattern_never_found(self, two_k2):
        r = oracle_feasible(two_k2, samples=10000, seed=0)
        assert not r.found

    def test_deterministic(self, uniform3):
        a = oracle_feasible(uniform3, samples=5000, seed=3)
        b = oracle_feasible(uniform3, samples=5000, seed=3)
        assert a.found == b.found
        assert a.samples == b.samples
        if a.found:
            assert a.accepted_Q[0] == b.accepted_Q[0]

    def test_agrees_with_classifier(self):
        # spot check: oracle success implies a positive decision
        for seed in range(8):
            t = gen_text(GenSpec(mode="random_efficient", n=3, seed=seed))
            r = oracle_feasible(t, samples=20000, seed=seed)
            d = decide_translatable(t)
            if r.found:
                assert d.translatable


def unpruned_oracle(t, samples=100000, seed=0, keep_all=False):
    """The oracle with its kernel as it was before the prune: Y and
    eigvalsh for every sample, free entries set in a Python loop.  Kept as
    the referee the pruned kernel must match bit for bit."""
    rng = np.random.default_rng([seed, 1618])
    emb = embed_text(t, pad_extra_dim=True)
    E = emb.vectors
    n = t.n
    free = sorted(null_index_set(t))
    nonnull = ~np.eye(n, dtype=bool)
    for (i, j) in free:
        nonnull[i, j] = nonnull[j, i] = False
    z = t.gram
    iu = np.triu_indices(n, 1)
    best = np.inf
    used = 0
    accepted_Q = []
    witness = None
    free_i = np.array([i for i, _ in free], dtype=int)
    free_j = np.array([j for _, j in free], dtype=int)

    def evaluate(Q, tablets, free_vals):
        nonlocal best
        m = len(Q)
        A = tablets @ E.conj()
        B = 1.0 + Q[:, None] * np.abs(A) ** 2
        Y = np.broadcast_to(np.eye(n, dtype=complex), (m, n, n)).copy()
        okB = B.min(axis=1) > 1e-12
        safeB = np.where(B > 1e-12, B, 1.0)
        num = z[None, :, :] + Q[:, None, None] * (A[:, :, None] * A.conj()[:, None, :])
        den = np.sqrt(safeB[:, :, None] * safeB[:, None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            forced = num / (den * np.where(nonnull, z, 1.0)[None, :, :])
        Y[:, nonnull] = forced[:, nonnull]
        for idx, (i, j) in enumerate(free):
            Y[:, i, j] = free_vals[:, idx]
            Y[:, j, i] = free_vals[:, idx].conj()
        lam = np.linalg.eigvalsh(Y)
        offmod = np.abs(Y[:, iu[0], iu[1]]) if n > 1 else np.zeros((m, 0))
        pen = np.maximum(0.0, -lam[:, 0]) ** 2
        if offmod.shape[1]:
            pen = pen + np.sum(np.maximum(0.0, offmod - MODULUS_CAP) ** 2, axis=1)
        if free_i.size:
            nullres = np.abs(Q[:, None] * A[:, free_i] * A.conj()[:, free_j])
            pen = pen + np.sum(np.maximum(0.0, nullres - 1e-8) ** 2, axis=1)
        pen = np.where(okB, pen, np.inf)
        finite = pen[np.isfinite(pen)]
        if finite.size:
            best = min(best, float(finite.min()))
        ok = okB & (lam[:, 0] >= -psd_tol(n))
        if offmod.shape[1]:
            ok &= offmod.max(axis=1) < 1.0 - 1e-12
        if free_i.size:
            ok &= nullres.max(axis=1) <= 1e-8
        return ok, Y, A

    def record(Q, tablet, Y, A):
        nonlocal witness
        if overlap_residual(t, float(Q), A, Y) > 1e-8:
            return False
        accepted_Q.append(float(Q))
        if witness is None:
            witness = TranslationWitness(
                Q=float(Q), q=q_from_Q(float(Q)), tablet=np.array(tablet),
                output_gram=np.array(Y), unitary=None,
                residuals={"eq4": overlap_residual(t, float(Q), A, Y),
                           "eq2": None})
        return True

    probe = np.zeros((1, emb.dim), dtype=complex)
    probe[0, -1] = 1.0
    used += 1
    ok, Y, A = evaluate(np.zeros(1), probe, np.zeros((1, len(free)), dtype=complex))
    if ok[0]:
        record(0.0, probe[0], Y[0], A[0])
        if not keep_all:
            return OracleReport(found=True, best_penalty=float(best),
                                samples=used, seed=seed, witness=witness,
                                accepted_Q=accepted_Q)
    while used < samples:
        m = int(min(512, samples - used))
        Q = rng.uniform(-1.0, 1.0, size=m)
        raw = rng.standard_normal((m, emb.dim)) + 1j * rng.standard_normal((m, emb.dim))
        tablets = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        radii = np.sqrt(rng.uniform(0.0, 1.0, size=(m, len(free))))
        phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=(m, len(free))))
        free_vals = radii * phases
        ok, Y, A = evaluate(Q, tablets, free_vals)
        used += m
        hit = False
        for s in np.flatnonzero(ok):
            hit = record(Q[s], tablets[s], Y[s], A[s]) or hit
            if hit and not keep_all:
                break
        if hit and not keep_all:
            break
    return OracleReport(found=witness is not None, best_penalty=float(best),
                        samples=used, seed=seed, witness=witness,
                        accepted_Q=accepted_Q)


def assert_reports_identical(got, ref):
    assert (got.found, got.samples, got.seed) == (ref.found, ref.samples, ref.seed)
    assert got.best_penalty.hex() == ref.best_penalty.hex()
    assert [q.hex() for q in got.accepted_Q] == [q.hex() for q in ref.accepted_Q]
    if ref.witness is None:
        assert got.witness is None
        return
    w, v = got.witness, ref.witness
    assert (w.Q.hex(), w.q, w.unitary) == (v.Q.hex(), v.q, v.unitary)
    assert w.tablet.tobytes() == v.tablet.tobytes()
    assert w.output_gram.tobytes() == v.output_gram.tobytes()
    assert w.residuals == v.residuals


def refused_random(n):
    """The first random_efficient n-text the classifier refuses."""
    for seed in range(1000):
        t = gen_text(GenSpec(mode="random_efficient", n=n, seed=seed))
        if not decide_translatable(t).translatable:
            return t
    raise AssertionError(f"no refused random {n}-text in 1000 seeds")


def core_with_pendants(n, seed):
    """A triangle with pendants hung round-robin on its corners: free pairs
    between the pendants and between each pendant and two corners."""
    edges = [(0, 1), (0, 2), (1, 2)] + [(v, v % 3) for v in range(3, n)]
    return gen_text(GenSpec(mode="from_graph", seed=seed, graph=make_graph(n, edges)))


def exactness_corpus():
    """(label, text, samples, seed, keep_all) on which the pruned oracle
    must reproduce the unpruned referee."""
    c4 = make_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3)])
    two_k2 = make_graph(4, [(0, 1), (2, 3)])
    out = [(f"untranslatable4_s{s}", gen_text(GenSpec(mode="untranslatable4", seed=s)),
            6000, 7, False) for s in range(3)]
    out += [(f"refused_random{n}", refused_random(n), 3000, n, False) for n in range(5, 9)]
    out += [
        ("two_k2", gen_text(GenSpec(mode="from_graph", seed=1, graph=two_k2)), 3000, 0, False),
        ("c4_plus_isolated", gen_text(GenSpec(mode="from_graph", seed=2, graph=c4)), 3000, 1, False),
        ("core_pendants5", core_with_pendants(5, 0), 3000, 2, False),
        ("core_pendants6", core_with_pendants(6, 1), 3000, 3, False),
        # the probe's Y is indefinite on these, so the Rayleigh bound prunes
        ("core_pendants8", core_with_pendants(8, 0), 3000, 4, False),
        ("c4_plus_isolated_s7", gen_text(GenSpec(mode="from_graph", seed=2, graph=c4)),
         4000, 7, False),
        ("core_pendants6_keep_all", core_with_pendants(6, 1), 3000, 5, True),
        # the probe's best penalty 0.382 falls to 0.330 within the batches
        ("core_pendants6_lowered", core_with_pendants(6, 0), 3000, 2, False),
    ]
    out += [(f"classical{n}", validate_text(np.eye(n)), 50, 0, False) for n in (1, 3, 6)]
    uniform3 = validate_text(uniform_gram(3, 0.5))
    out += [
        ("uniform3_keep_all", uniform3, 4096, 1, True),
        ("uniform3_first_hit", uniform3, 50000, 0, False),
        # the probe, five batches of 512 and a short one of 216
        ("uniform3_short_batch", uniform3, 2777, 5, True),
        ("untranslatable4_short_batch",
         gen_text(GenSpec(mode="untranslatable4", seed=4)), 2777, 9, False),
    ]
    # the Q = 0 probe is the first batch: it runs even when samples < 1,
    # and with keep_all an accepted probe is followed by every random batch
    classical3 = validate_text(np.eye(3))
    refused = gen_text(GenSpec(mode="untranslatable4", seed=0))
    out += [
        ("classical3_samples0", classical3, 0, 0, False),
        ("classical3_samples1", classical3, 1, 0, False),
        ("refused_samples0", refused, 0, 7, False),
        ("refused_samples1", refused, 1, 7, False),
        ("classical3_keep_all", classical3, 1100, 3, True),
    ]
    return out


class TestOraclePrune:
    """The pruned kernel skips Y and eigvalsh only where it cannot change
    the report; the unpruned referee above must agree bit for bit."""

    @pytest.mark.parametrize("label,t,samples,seed,keep_all", exactness_corpus(),
                             ids=[c[0] for c in exactness_corpus()])
    def test_matches_unpruned_referee(self, label, t, samples, seed, keep_all):
        ref = unpruned_oracle(t, samples=samples, seed=seed, keep_all=keep_all)
        got = oracle_feasible(t, samples=samples, seed=seed, keep_all=keep_all)
        assert_reports_identical(got, ref)

    def test_most_samples_skip_eigvalsh(self, monkeypatch):
        t = gen_text(GenSpec(mode="untranslatable4", seed=0))
        ref = unpruned_oracle(t, samples=20000, seed=0)
        real = np.linalg.eigvalsh
        rows = []

        def counting(a, *args, **kwargs):
            rows.append(a.shape[0] if a.ndim == 3 else 1)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        got = oracle_feasible(t, samples=20000, seed=0)
        assert_reports_identical(got, ref)
        assert got.samples == 20000
        assert sum(rows) < got.samples / 2



class TestRayleighPrune:
    """Pendant and C4 texts, where the probe's Y is indefinite and the
    Rayleigh bound does the pruning."""

    def test_lowered_case_goes_below_the_probe(self):
        _, t, samples, seed, _ = next(c for c in exactness_corpus()
                                      if c[0] == "core_pendants6_lowered")
        probe = oracle_feasible(t, samples=1, seed=seed)
        assert np.linalg.eigvalsh(probe_gram(t))[0] < 0
        assert oracle_feasible(t, samples=samples, seed=seed).best_penalty < probe.best_penalty

    @pytest.mark.parametrize("label", ["core_pendants6", "core_pendants8", "c4_plus_isolated"])
    def test_most_samples_skip_eigvalsh(self, label, monkeypatch):
        t = pendant_and_c4_texts()[label]
        assert np.linalg.eigvalsh(probe_gram(t))[0] < 0
        ref = unpruned_oracle(t, samples=20000, seed=7)
        real = np.linalg.eigvalsh
        rows = []

        def counting(a, *args, **kwargs):
            rows.append(a.shape[0] if a.ndim == 3 else 1)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        got = oracle_feasible(t, samples=20000, seed=7)
        assert_reports_identical(got, ref)
        assert sum(rows) < got.samples / 2

    @pytest.mark.parametrize("label", ["core_pendants6", "core_pendants8", "c4_plus_isolated"])
    def test_cholesky_tier_leaves_under_one_percent(self, label, monkeypatch):
        # the probe's PSD term sets the best, and the shifted Cholesky of
        # tier 2 shows almost every later sample's PSD term above it
        t = pendant_and_c4_texts()[label]
        ref = unpruned_oracle(t, samples=20000, seed=7)
        real = np.linalg.eigvalsh
        rows = []

        def counting(a, *args, **kwargs):
            rows.append(a.shape[0] if a.ndim == 3 else 1)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        got = oracle_feasible(t, samples=20000, seed=7)
        assert_reports_identical(got, ref)
        assert sum(rows) < got.samples / 100


def probe_gram(t):
    """The output Gram of the Q = 0 probe: ones on the text's edges, zeros
    on its orthogonal pairs."""
    return np.where(np.abs(t.gram) > 1e-9, 1.0, 0.0).astype(complex)


def referee_rows(t, Q, tablets, free_vals):
    """The unpruned evaluation of one batch: per sample the penalty (inf
    where some B <= 1e-12), whether it passes every acceptance test before
    the overlap residual, its full output Gram Y, its smallest B, and its
    null residuals."""
    E = embed_text(t, pad_extra_dim=True).vectors
    n = t.n
    free = sorted(null_index_set(t))
    fi = np.array([i for i, _ in free], dtype=int)
    fj = np.array([j for _, j in free], dtype=int)
    nonnull = ~np.eye(n, dtype=bool)
    nonnull[fi, fj] = nonnull[fj, fi] = False
    A = tablets @ E.conj()
    B = 1.0 + Q[:, None] * np.abs(A) ** 2
    okB = B.min(axis=1) > 1e-12
    safeB = np.where(B > 1e-12, B, 1.0)
    num = t.gram[None] + Q[:, None, None] * (A[:, :, None] * A.conj()[:, None, :])
    den = np.sqrt(safeB[:, :, None] * safeB[:, None, :]) * np.where(nonnull, t.gram, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        Y = num / den
    Y[:, np.arange(n), np.arange(n)] = 1.0
    Y[:, fi, fj] = free_vals
    Y[:, fj, fi] = free_vals.conj()
    # eigvalsh does not converge on NaN entries
    lam = np.full(len(Q), np.nan)
    finite = np.isfinite(Y).all(axis=(1, 2))
    lam[finite] = np.linalg.eigvalsh(Y[finite])[:, 0]
    iu = np.triu_indices(n, 1)
    offmod = np.abs(Y[:, iu[0], iu[1]])
    nullres = np.abs(Q[:, None] * A[:, fi] * A.conj()[:, fj])
    pen = (np.maximum(0.0, -lam) ** 2
           + np.sum(np.maximum(0.0, offmod - MODULUS_CAP) ** 2, axis=1)
           + np.sum(np.maximum(0.0, nullres - 1e-8) ** 2, axis=1))
    ok = (okB & (lam >= -psd_tol(n)) & (offmod.max(axis=1, initial=0.0) < 1.0 - 1e-12)
          & (nullres.max(axis=1, initial=0.0) <= 1e-8))
    return np.where(okB, pen, np.inf), ok, Y, B.min(axis=1), nullres


def triangles(t, Q, tablets, free_vals, Y):
    """Evaluations of the upper triangle that differ in the last bits: the
    full Y's upper triangle, its lower triangle conjugated, one computed in
    the (m, n(n-1)/2) layout, and the first scaled by 1 -+ 2^-50, well
    inside the per-entry error `_skipped` allows for."""
    n = t.n
    iu = np.triu_indices(n, 1)
    A = tablets @ embed_text(t, pad_extra_dim=True).vectors.conj()
    B = 1.0 + Q[:, None] * np.abs(A) ** 2
    safeB = np.where(B > 1e-12, B, 1.0)
    z = t.gram[iu]
    zden = np.where(np.abs(z) > 1e-9, z, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        flat = (z + Q[:, None] * (A[:, iu[0]] * A[:, iu[1]].conj())) / (
            np.sqrt(safeB[:, iu[0]] * safeB[:, iu[1]]) * zden)
    upper = Y[:, iu[0], iu[1]]
    free = np.abs(z) <= 1e-9
    flat[:, free] = upper[:, free]
    return [upper, Y[:, iu[1], iu[0]].conj(), flat,
            upper * (1.0 - 2.0 ** -50), upper * (1.0 + 2.0 ** -50)]


def assert_skips_are_sound(t, Q, tablets, free_vals, x, bests):
    """No sample that `_skipped` drops would have been accepted, or would
    have had a penalty below `best`, for any of the triangles."""
    pen, ok, Y, Bmin, nullres = referee_rows(t, Q, tablets, free_vals)
    nullok = nullpen = None
    if nullres.shape[1]:
        nullpen = np.sum(np.maximum(0.0, nullres - 1e-8) ** 2, axis=1)
        nullok = nullres.max(axis=1) <= 1e-8
    zmin = np.abs(t.gram[np.abs(t.gram) > 1e-9]).min()
    for yt in triangles(t, Q, tablets, free_vals, Y):
        for best in bests:
            skip = _skipped(yt, Bmin, best, nullok, nullpen, _prune_consts(t.n, zmin, x))
            assert not np.any(skip & ok)
            assert not np.any(skip & (pen < best))
            # a NaN in the triangle keeps its sample unless some B <= 1e-12
            assert not np.any(skip & (Bmin > 1e-12) & np.isnan(yt).any(axis=1))


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def random_batch(rng, m, dim):
    """m values of Q and m unit tablets of length dim."""
    return (rng.uniform(-1.0, 1.0, m),
            unit_rows(rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))))


def edge_batches(t, Q, tablets, pairs, holds, width):
    """For each (a, b) of `pairs`, a batch of 33 samples spread over
    +-`width` around the point of the segment from sample a to sample b
    where `holds(Y)` stops being true, found by bisection.  Only batches
    with samples on both sides of the referee's acceptance are returned,
    as (Q, tablets, Y).  The text has no orthogonal pairs."""
    none = np.zeros((33, 0), dtype=complex)

    def along(c, a, b):
        return ((1 - c) * Q[a] + c * Q[b],
                unit_rows((1 - c)[:, None] * tablets[a] + c[:, None] * tablets[b]))

    out = []
    for a, b in pairs:
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            y = referee_rows(t, *along(np.array([mid]), a, b), none[:1])[2][0]
            lo, hi = (mid, hi) if holds(y) else (lo, mid)
        Qc, tc = along(lo + np.linspace(-width, width, 33), a, b)
        _, ok, Y, *_ = referee_rows(t, Qc, tc, none)
        if ok.any() and not ok.all():
            out.append((Qc, tc, Y))
    return out


U = 2.0 ** -53
# offsets from an edge: steps of u / 4 within 8 u, and of 4 u within 2048 u
EDGE_STEPS = np.concatenate([np.arange(-32, 33) / 4, np.arange(-512, 513) * 4.0]) * U


def circulant_grams(n, lams, b):
    """Hermitian circulant n x n Grams with unit diagonal, one per lam of
    `lams`, with the eigenvalues lam (eigenvector the all-ones vector),
    n - lam - (n - 2) b, and b n - 2 times."""
    k = np.arange(n)
    F = np.exp(2j * np.pi * np.outer(k, k) / n)
    lams = np.asarray(lams, dtype=float)
    spec = np.full((lams.size, n), float(b))
    spec[:, 0] = lams
    spec[:, 1] = n - lams - (n - 2) * b
    Y = np.einsum("jk,mk,lk->mjl", F, spec, F.conj()) / n
    Y = (Y + Y.conj().transpose(0, 2, 1)) / 2
    Y[:, k, k] = 1.0
    return Y


def edge_of_model(Y):
    """The worst case `_skipped`'s error model allows for the circulants Y,
    with B_min = zmin = 1, so eps = 128 u: the triangle yt with every
    entry moved by eps along -1, which lowers lambda_min(Y_t) by the whole
    (n - 1) eps that Weyl's term allows, and the largest lambda_min that a
    backward-stable eigvalsh may return, 16 n u R above the computed one."""
    n = Y.shape[1]
    iu = np.triu_indices(n, 1)
    eps = 128 * U
    upper = Y[:, iu[0], iu[1]]
    yt = upper - eps
    assert np.all(np.abs(yt - upper) <= eps)
    R = 1.0 + (n - 1) * (np.abs(yt).max(axis=1) + eps)
    return yt, np.linalg.eigvalsh(Y)[:, 0] + 16 * n * U * R


def edge_rows(Y, lam):
    """Penalty and acceptance of the rows Y if eigvalsh returned `lam`."""
    n = Y.shape[1]
    iu = np.triu_indices(n, 1)
    offmod = np.abs(Y[:, iu[0], iu[1]])
    pen = np.maximum(0.0, -lam) ** 2 + np.sum(np.maximum(0.0, offmod - MODULUS_CAP) ** 2, axis=1)
    return pen, (lam >= -psd_tol(n)) & (offmod.max(axis=1) < 1.0 - 1e-12)


def assert_sound_at_the_edge(Y, yt, lam, bests):
    """No sample that `_skipped` drops is acceptable, or has a penalty below
    `best`, when eigvalsh returns `lam` on its Y."""
    pen, ok = edge_rows(Y, lam)
    pc = _prune_consts(Y.shape[1], 1.0)
    for best in bests:
        skip = _skipped(yt, np.ones(len(Y)), best, None, None, pc)
        assert not np.any(skip & ok), best
        assert not np.any(skip & (pen < best)), best


def bests_around(c, n):
    """Values of `best` that put c = sqrt(best / (1 - s)) at c - d for
    each d of EDGE_STEPS."""
    c = c - EDGE_STEPS
    return list((c[c > 0] ** 2) * (1.0 - 8 * (n * (n - 1) // 2 + 1) * U))


class TestPruneSoundness:
    """`_skipped` at the tolerance edges, against the unpruned evaluation."""

    def test_lambda_min_within_1e12_of_the_psd_floor(self):
        # uniform3 has samples on both sides of -psd_tol with every other
        # test passed
        t = validate_text(uniform_gram(3, 0.5))
        Q, tablets = random_batch(np.random.default_rng(3), 4000, 4)
        pen, ok, Y, *_ = referee_rows(t, Q, tablets, np.zeros((4000, 0), dtype=complex))
        lam = np.linalg.eigvalsh(Y)[:, 0]
        floor = -psd_tol(3)
        outside = np.flatnonzero(~ok & (lam < floor) & (pen < 1e-3))
        batches = edge_batches(t, Q, tablets, zip(np.flatnonzero(ok)[:40], outside[:40]),
                               lambda y: np.linalg.eigvalsh(y)[0] >= floor, 4e-12)
        assert len(batches) >= 5
        for Qc, tc, Yc in batches:
            assert np.abs(np.linalg.eigvalsh(Yc)[:, 0] - floor).max() < 1e-10
            x = np.linalg.eigh(Yc[16])[1][:, 0]
            assert_skips_are_sound(t, Qc, tc, np.zeros((33, 0)), x, [0.0, 1e-30])

    def test_modulus_within_ulps_of_the_distinct_floor(self):
        # on a 2-text lambda_min = 1 - |y|, so the modulus test is the edge
        t = validate_text(uniform_gram(2, 0.5))
        Q, tablets = random_batch(np.random.default_rng(2), 400, 3)
        _, ok, Y, Bmin, _ = referee_rows(t, Q, tablets, np.zeros((400, 0), dtype=complex))
        mod = np.abs(Y[:, 0, 1])
        floor = 1.0 - 1e-12
        outside = np.flatnonzero((mod >= floor) & (mod < 1.5) & (Bmin > 0.01))
        batches = edge_batches(t, Q, tablets, zip(np.flatnonzero(ok)[:40], outside[:40]),
                               lambda y: abs(y[0, 1]) < floor, 2e-15)
        assert len(batches) >= 5
        for Qc, tc, Yc in batches:
            assert np.abs(np.abs(Yc[:, 0, 1]) - floor).max() < 1e-14
            x = np.linalg.eigh(Yc[16])[1][:, 0]
            for probe in (x, None):
                assert_skips_are_sound(t, Qc, tc, np.zeros((33, 0)), probe, [0.0])

    def test_penalty_equal_to_best_to_the_ulp(self):
        # x from each sample's own Y makes the Rayleigh bound as tight as it gets
        t = core_with_pendants(6, 1)
        rng = np.random.default_rng(11)
        m = 64
        Q, tablets = random_batch(rng, m, embed_text(t, pad_extra_dim=True).dim)
        nfree = len(null_index_set(t))
        free_vals = (np.sqrt(rng.uniform(size=(m, nfree)))
                     * np.exp(2j * np.pi * rng.uniform(size=(m, nfree))))
        pen, _, Y, *_ = referee_rows(t, Q, tablets, free_vals)
        probe_x = np.linalg.eigh(probe_gram(t))[1][:, 0]
        for s in range(m):
            if not np.isfinite(pen[s]):
                continue
            bests = [np.nextafter(pen[s], -np.inf), pen[s], np.nextafter(pen[s], np.inf)]
            x = np.linalg.eigh(Y[s])[1][:, 0]
            assert_skips_are_sound(t, Q[s:s + 1], tablets[s:s + 1], free_vals[s:s + 1],
                                   x, bests)
        assert_skips_are_sound(t, Q, tablets, free_vals, probe_x,
                               sorted(pen[np.isfinite(pen)]))

    def test_b_just_above_the_floor(self):
        # a tablet on state 0 and Q near -1 put B_0 at 1e-12 (1 + d)
        t = core_with_pendants(6, 1)
        emb = embed_text(t, pad_extra_dim=True)
        d = np.array([-0.5, -1e-3, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e6])
        tablets = np.repeat(unit_rows(emb.vectors[:, :1].T.copy()), len(d), axis=0)
        a0 = np.abs(tablets @ emb.vectors.conj())[0, 0] ** 2
        Q = (1e-12 * (1.0 + d) - 1.0) / a0
        free_vals = np.full((len(d), len(null_index_set(t))), 0.3 + 0.1j)
        pen, _, Y, Bmin, _ = referee_rows(t, Q, tablets, free_vals)
        assert list(Bmin > 1e-12) == [False, False] + [True] * 7
        assert Bmin[2] < 1.01e-12
        x = np.linalg.eigh(probe_gram(t))[1][:, 0]
        finite = pen[np.isfinite(pen)]
        assert_skips_are_sound(t, Q, tablets, free_vals, x,
                               [0.0, finite.min(), np.median(finite), np.inf])

    def test_nan_entries(self):
        t = core_with_pendants(6, 1)
        m = 32
        dim = embed_text(t, pad_extra_dim=True).dim
        Q, tablets = random_batch(np.random.default_rng(5), m, dim)
        free_vals = np.full((m, len(null_index_set(t))), 0.5 + 0.0j)
        free_vals[::3, 0] = np.nan
        free_vals[1::5, -1] = complex(np.nan, 0.0)
        tablets[2::7, 1] = np.nan
        Q[3] = np.nan
        x = np.linalg.eigh(probe_gram(t))[1][:, 0]
        for probe in (x, None):
            assert_skips_are_sound(t, Q, tablets, free_vals, probe, [0.0, 1.0, np.inf])

    # tier 2 at the edge of its error model: yt as far from Y as eps
    # allows and eigvalsh off by its whole backward error, so that each
    # of the margins of sigma is needed

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_lambda_min_ulps_either_side_of_minus_c(self, n):
        Y = circulant_grams(n, [-0.05, -0.02, -1e-3, -1e-6], 0.1)
        yt, lam = edge_of_model(Y)
        # every |y| is under MODULUS_CAP: the PSD term is the whole penalty
        assert np.all(lam < 0) and np.abs(yt).max() < MODULUS_CAP
        for r in range(len(Y)):
            bests = bests_around(-lam[r], n)
            assert_sound_at_the_edge(Y[r:r + 1], yt[r:r + 1], lam[r:r + 1], bests)

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_best_equal_to_a_penalty_to_the_ulp(self, n):
        Y = circulant_grams(n, -np.geomspace(1e-7, 0.5, 40), 0.1)
        yt, lam = edge_of_model(Y)
        true_pen = edge_rows(Y, np.linalg.eigvalsh(Y)[:, 0])[0]
        for p in np.concatenate([edge_rows(Y, lam)[0], true_pen]):
            assert_sound_at_the_edge(Y, yt, lam, [np.nextafter(p, -np.inf), p,
                                                  np.nextafter(p, np.inf)])

    @pytest.mark.parametrize("n", [3, 6, 8])
    @pytest.mark.parametrize("b", [0.05, 1e-7])
    def test_passing_moduli_with_lambda_min_at_the_psd_floor(self, n, b):
        # b = 0.05 keeps every |y| below MODULUS_CAP, so with best = 0 the
        # need is 0; b = 1e-7 puts |y| between the cap and 1 - 1e-12, so a
        # modulus term but no failed test, and bests up to it keep need <= 0.
        # Either way c = psd_tol(n), and lambda_min steps across -psd_tol(n).
        tol = psd_tol(n)
        _, lam = edge_of_model(circulant_grams(n, [-tol], b))
        Y = circulant_grams(n, -tol - (lam[0] + tol) + EDGE_STEPS, b)
        yt, lam = edge_of_model(Y)
        pen, ok = edge_rows(Y, lam)
        assert ok.any() and not ok.all()
        offmod = np.abs(Y[:, 0, 1:])
        if b < 1e-3:
            assert np.all((offmod > MODULUS_CAP) & (offmod < 1.0 - 1e-12))
        other = pen - np.maximum(0.0, -lam) ** 2
        bests = [0.0, 0.5 * other.min(), other.min() * (1.0 - 8 * (yt.shape[1] + 1) * U)]
        assert_sound_at_the_edge(Y, yt, lam, bests)

    def test_nan_in_the_triangle_or_the_null_term_keeps_the_sample(self):
        # y = -0.5 on every pair of a 6-text: lambda_min = -1.5, and with
        # best = 0.1 the factorization fails at the fourth pivot, before it
        # reads the last pair
        m, n = 8, 6
        yt = np.full((m, n * (n - 1) // 2), -0.5 + 0.0j)
        nullres = np.zeros((m, 2))
        pc = _prune_consts(n, 1.0)
        skip = _skipped(yt, np.ones(m), 0.1, nullres.max(axis=1) <= 1e-8, np.zeros(m), pc)
        assert skip.all()
        yt[0, 0] = np.nan
        yt[1, -1] = np.nan
        yt[2, -1] = complex(0.0, np.nan)
        yt[3, 3] = complex(np.nan, np.nan)
        nullres[4, 1] = np.nan
        nullpen = np.sum(np.maximum(0.0, nullres - 1e-8) ** 2, axis=1)
        skip = _skipped(yt, np.ones(m), 0.1, nullres.max(axis=1) <= 1e-8, nullpen, pc)
        assert list(skip) == [False] * 5 + [True] * 3


def pendant_and_c4_texts():
    """Refused texts whose probe Y is indefinite, so that the PSD term, not
    the modulus and null terms, sets the best penalty."""
    c4 = make_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3)])
    return {"core_pendants6": core_with_pendants(6, 1),
            "core_pendants8": core_with_pendants(8, 0),
            "c4_plus_isolated": gen_text(GenSpec(mode="from_graph", seed=2, graph=c4))}


def digest_corpus():
    """The refused texts whose reports `REPORT_DIGEST` fixes."""
    out = [gen_text(GenSpec(mode="untranslatable4", seed=s)) for s in range(3)]
    out += [refused_random(n) for n in range(5, 9)]
    return out + list(pendant_and_c4_texts().values())


def report_digest(reports):
    """sha256 over every bit of a list of reports that a caller can read."""
    h = hashlib.sha256()
    for rep in reports:
        h.update(f"{rep.found} {rep.samples} {rep.best_penalty.hex()}\n".encode())
        h.update(" ".join(q.hex() for q in rep.accepted_Q).encode() + b"\n")
        w = rep.witness
        if w is not None:
            h.update(w.Q.hex().encode() + w.tablet.tobytes() + w.output_gram.tobytes())
            h.update(repr(w.residuals).encode())
    return h.hexdigest()


# recorded from the kernel that built the full n x n output Gram of every
# sample and pruned on the modulus and null terms alone
REPORT_DIGEST = "eefec1ac3a10d85946c7f7912d5a06d8650027c3790a770aaf81ca43b62cef80"


def test_reports_at_20000_samples_are_unchanged():
    reports = [oracle_feasible(t, samples=20000, seed=7) for t in digest_corpus()]
    assert report_digest(reports) == REPORT_DIGEST


class TestOracleProbe:
    @pytest.mark.parametrize("label,t,samples,seed,keep_all", exactness_corpus(),
                             ids=[c[0] for c in exactness_corpus()])
    def test_found_iff_witness_and_refusals_use_every_sample(
            self, label, t, samples, seed, keep_all):
        rep = oracle_feasible(t, samples=samples, seed=seed, keep_all=keep_all)
        assert rep.found == (rep.witness is not None)
        if not rep.found:
            assert rep.samples == max(samples, 1)

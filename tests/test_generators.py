"""Text generators and the random feasibility probe."""

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
from qtext.generators import MODULUS_CAP, OracleReport
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

"""End-to-end acceptance gates.

Each test is one gate and prints a single summary line on success (visible
with -s, kept in the captured output otherwise); the pytest -v status line
is the pass/fail record.  The witness corpora built for the translation
gates are shared, because the overlap-pattern gate re-checks every witness
the earlier gates produced.
"""

import itertools
import time

import numpy as np
import pytest

from qtext import (
    GenSpec,
    SimpleGraph,
    check_witness,
    clone_classical,
    decide_translatable,
    decide_zero_translatable,
    embed_text,
    gen_text,
    graph_of_text,
    graphs_isomorphic,
    hadamard_inverse_signature,
    oracle_feasible,
    realize_graph,
    recognize,
    restrict_witness,
    subtext,
    synthesize_unitary,
    tablet_overlaps,
    text_properties,
    translate,
    validate_text,
)
from qtext.graphs import (
    GraphClass,
    WellSplitShape,
    induced_subgraph,
    shape_to_graph,
    split_by_definition,
)
from tests.conftest import uniform_gram

R1_TOL = 1e-8
R3_TOL = 1e-8
UNITARITY_TOL = 1e-10
ORTH_TOL = 1e-9

GOOD_CLASSES = (GraphClass.WELL_SPLIT, GraphClass.INDEPENDENT)


def overlaps_of(t, w):
    """Tablet overlaps <psi_0|psi_i> recovered from a witness."""
    emb = embed_text(t)
    if len(w.tablet) == emb.dim + 1:
        emb = embed_text(t, pad_extra_dim=True)
    return tablet_overlaps(emb, w.tablet)


def all_graphs(n):
    """Every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph(
            n=n,
            edges=frozenset(p for k, p in enumerate(pairs) if bits >> k & 1))


# -- shared witness corpora ------------------------------------------------

@pytest.fixture(scope="module")
def three_text_corpus():
    """(text, witness) for 500 seeded random efficient 3-texts."""
    out = []
    for seed in range(500):
        t = gen_text(GenSpec(mode="random_efficient", n=3, seed=seed))
        out.append((t, translate(t)))
    return out


@pytest.fixture(scope="module")
def four_text_results():
    """(text, decision, witness or None) for 200 fully-quantum 4-texts."""
    out = []
    seed = 0
    while len(out) < 200:
        t = gen_text(GenSpec(mode="random_efficient", n=4, seed=seed))
        seed += 1
        if not text_properties(t).fully_quantum:
            continue
        d = decide_translatable(t)
        w = translate(t) if d.translatable else None
        out.append((t, d, w))
    return out


@pytest.fixture(scope="module")
def realized_graphs():
    """(graph, text, witness) for every connected well-split graph, n <= 6.

    Enumerated through the shape parameters: a clique of n2 >= 2 vertices,
    ell of which carry m_1 >= ... >= m_ell pendants, plus the one-vertex
    graph.  Deduplicated by isomorphism as a guard against shape aliasing.
    """
    graphs = [SimpleGraph(n=1, edges=frozenset())]
    for n in range(2, 7):
        for n2 in range(2, n + 1):
            p = n - n2
            if p == 0:
                graphs.append(shape_to_graph(WellSplitShape(n2, 0, ())))
                continue
            for ell in range(1, min(n2, p) + 1):
                for m in partitions(p, ell):
                    graphs.append(
                        shape_to_graph(WellSplitShape(n2, ell, m)))
    distinct = []
    for g in graphs:
        if not any(h.n == g.n and graphs_isomorphic(h, g) for h in distinct):
            distinct.append(g)
    assert len(distinct) == len(graphs), "shape enumeration produced aliases"
    out = []
    for g in distinct:
        r = realize_graph(g)
        out.append((g, r.text, r.witness))
    return out


def partitions(total, parts):
    """Decreasing positive integer tuples of length `parts` summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range((total + parts - 1) // parts, total - parts + 2):
        for rest in partitions(total - first, parts - 1):
            if rest[0] <= first:
                yield (first,) + rest


# -- gates -----------------------------------------------------------------

def test_01_graph_recognition_exhaustive_to_n6():
    """Scan recognizer vs splitting-by-definition on all graphs with n <= 6,
    plus witness kinds and minimality of the four forbidden graphs."""
    t0 = time.time()
    total = 0
    for n in range(1, 7):
        for g in all_graphs(n):
            total += 1
            rec = recognize(g)
            is_split, is_well = split_by_definition(g)
            assert (rec.klass in GOOD_CLASSES) == is_well, g
            assert (rec.klass != GraphClass.NOT_SPLIT) == is_split, g
    forbidden = {
        "TwoK2": SimpleGraph(4, frozenset({(0, 1), (2, 3)})),
        "C4": SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})),
        "Diamond": SimpleGraph(4, frozenset(
            {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)})),
        "C5": SimpleGraph(5, frozenset(
            {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})),
    }
    for kind, g in forbidden.items():
        rec = recognize(g)
        assert rec.klass not in GOOD_CLASSES
        assert rec.witness is not None and rec.witness.kind == kind
        # minimality: every proper induced subgraph is fine
        for size in range(1, g.n):
            for keep in itertools.combinations(range(g.n), size):
                sub, _ = induced_subgraph(g, list(keep))
                assert recognize(sub).klass in GOOD_CLASSES, (kind, keep)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"recognition scan: PASS ({total} graphs, {elapsed:.1f}s)")


def test_02_random_efficient_3texts_all_translate(three_text_corpus):
    """Every seeded random efficient 3-text is decided yes and receives a
    verified witness within tolerance."""
    t0 = time.time()
    worst = {"r1": 0.0, "r3": 0.0, "unitarity": 0.0}
    for seed, (t, w) in enumerate(three_text_corpus):
        assert decide_translatable(t).translatable, seed
        rep = check_witness(t, w)
        assert rep.passed, (seed, rep)
        assert rep.r1 <= R1_TOL and rep.r3 <= R3_TOL, (seed, rep)
        assert rep.unitarity <= UNITARITY_TOL, (seed, rep)
        worst["r1"] = max(worst["r1"], rep.r1)
        worst["r3"] = max(worst["r3"], rep.r3)
        worst["unitarity"] = max(worst["unitarity"], rep.unitarity)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"3-text translation: PASS (500 texts, worst r1 {worst['r1']:.2e}, "
          f"r3 {worst['r3']:.2e}, unitarity {worst['unitarity']:.2e}, "
          f"{elapsed:.1f}s)")


def test_03_classifier_vs_search_and_oracle_n4(four_text_results):
    """On 200 fully-quantum 4-texts the spectral classifier, the direct
    search, and the random-tablet oracle never disagree."""
    t0 = time.time()
    n_yes = 0
    disagreements = 0
    for k, (t, d, w) in enumerate(four_text_results):
        if d.translatable:
            n_yes += 1
            assert w is not None
            rep = check_witness(t, w)
            assert rep.passed, (k, rep)
            assert int(np.sign(w.Q)) in d.sign_constraint, (k, w.Q)
        else:
            probe = oracle_feasible(t, samples=100000, seed=7)
            if probe.found:
                disagreements += 1
    assert disagreements == 0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    print(f"4-text cross-validation: PASS (200 texts, {n_yes} translatable, "
          f"0 disagreements, {elapsed:.1f}s)")


def test_04_signature_2_2_frontier_text():
    """The rejection sampler finds an efficient fully-quantum 4-text whose
    inverse-overlap matrix has two eigenvalues of each sign, and the
    classifier rejects it on that ground."""
    for seed in range(3):
        t = gen_text(GenSpec(mode="untranslatable4", seed=seed))
        props = text_properties(t)
        assert t.n == 4 and props.efficient and props.fully_quantum
        sig = hadamard_inverse_signature(t)
        assert (sig.n_pos, sig.n_neg, sig.n_zero) == (2, 2, 0)
        d = decide_translatable(t)
        assert not d.translatable and d.reason == "THEOREM_F_FAIL"
        assert d.sign_constraint == frozenset()
    print("frontier 4-text: PASS (3 seeds, signature (2,2,0), rejected)")


def test_05_realize_all_connected_well_split_graphs(realized_graphs):
    """Every connected well-split graph on at most 6 vertices is realized by
    a text with an isomorphic overlap graph and a verified witness with
    0 < Q <= 1."""
    t0 = time.time()
    for g, t, w in realized_graphs:
        assert graphs_isomorphic(graph_of_text(t), g)
        rep = check_witness(t, w)
        assert rep.passed and rep.r1 <= R1_TOL, (g, rep)
        assert 0.0 < w.Q <= 1.0, (g, w.Q)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"graph realization: PASS ({len(realized_graphs)} graphs, "
          f"{elapsed:.1f}s)")


def test_06_zero_entanglement_accepts_exactly_classical():
    """Over a 500-text mixed corpus the zero-entanglement decision matches
    the classical property bit for bit; clones are exact; any text arises
    as the output of cloning a classical one."""
    corpus = []
    for k in range(125):
        corpus.append(validate_text(np.eye(2 + k % 7)))
    for k in range(125):
        corpus.append(gen_text(GenSpec(mode="random_efficient",
                                       n=2 + k % 4, seed=k)))
    for k in range(125):
        corpus.append(gen_text(GenSpec(mode="uniform", n=3 + k % 4, seed=k)))
    star = SimpleGraph(4, frozenset({(0, 1), (0, 2), (0, 3)}))
    path = SimpleGraph(4, frozenset({(0, 1), (1, 2), (2, 3)}))
    for k in range(125):
        corpus.append(gen_text(GenSpec(mode="from_graph",
                                       graph=star if k % 2 else path, seed=k)))
    assert len(corpus) == 500
    mistakes = 0
    n_classical = 0
    for t in corpus:
        accepted = decide_zero_translatable(t).translatable
        classical = text_properties(t).classical
        if accepted != classical:
            mistakes += 1
        if classical:
            n_classical += 1
            w = clone_classical(t)
            w.unitary = synthesize_unitary(t, w)
            rep = check_witness(t, w)
            assert rep.passed and rep.r1 == 0.0 and rep.r3 is not None
    assert mistakes == 0
    rng = np.random.default_rng(2024)
    for k in range(50):
        n = 2 + k % 4
        target = gen_text(GenSpec(mode="random_efficient", n=n, seed=1000 + k))
        base = validate_text(np.eye(n))
        w = clone_classical(base, target_output=target.gram)
        w.unitary = synthesize_unitary(base, w)
        rep = check_witness(base, w)
        assert rep.passed and rep.r1 == 0.0 and rep.r3 is not None
        np.testing.assert_array_equal(w.output_gram, target.gram)
    print(f"zero-entanglement gate: PASS (500 texts, {n_classical} classical, "
          "0 mistakes, 50 arbitrary targets)")


def test_07_witness_sign_and_tablet_overlap_patterns(
        three_text_corpus, four_text_results, realized_graphs):
    """Structural invariants across every witness the earlier gates made:
    positive Q on connected not-fully-quantum inputs, zero-overlap states
    pairwise orthogonal, nonzero-overlap states pairwise non-orthogonal,
    and no zero overlaps at all on fully-quantum inputs with 3+ states."""
    pool = [(t, w) for t, w in three_text_corpus]
    pool += [(t, w) for t, _, w in four_text_results if w is not None]
    pool += [(t, w) for _, t, w in realized_graphs]
    n_mixed = 0
    for t, w in pool:
        props = text_properties(t)
        g = graph_of_text(t)
        connected = len([c for c in connected_parts(g)]) == 1
        if connected and not props.fully_quantum:
            n_mixed += 1
            assert w.Q > 0.0, (t.n, w.Q)
        if w.Q == 0.0:
            continue
        a = overlaps_of(t, w)
        zero = np.abs(a) <= ORTH_TOL
        for i in range(t.n):
            for j in range(i + 1, t.n):
                if zero[i] and zero[j]:
                    assert abs(t.gram[i, j]) <= ORTH_TOL, (i, j)
                if not zero[i] and not zero[j]:
                    assert abs(t.gram[i, j]) > ORTH_TOL, (i, j)
        if props.fully_quantum and t.n >= 3:
            assert not zero.any()
    assert n_mixed > 0
    print(f"witness patterns: PASS ({len(pool)} witnesses, "
          f"{n_mixed} with classical parts)")


def connected_parts(g):
    from qtext.graphs import connected_components
    return connected_components(g)


def test_08_uniform_central_translation_grid():
    """Central translation succeeds across the whole admissible overlap
    range for 3 to 6 states, with Q opposing the sign of z."""
    checked = 0
    for n in range(3, 7):
        lo = -1.0 / (n - 1) + 0.02
        for z in np.linspace(lo, 0.95, 20):
            if abs(z) < 0.02:
                continue
            t = validate_text(uniform_gram(n, float(z)))
            w = translate(t, force_sign=-int(np.sign(z)))
            assert np.sign(w.Q) == -np.sign(z), (n, z, w.Q)
            rep = check_witness(t, w)
            assert rep.passed, (n, z, rep)
            assert rep.r3 is not None, (n, z, rep)
            assert rep.r1 <= R1_TOL and rep.r3 <= R1_TOL, (n, z, rep)
            checked += 1
    print(f"uniform central grid: PASS ({checked} (n, z) points)")


def test_09_subtext_heredity_with_restricted_witnesses():
    """For 100 translatable texts with up to 5 states, every nonempty index
    subset yields a translatable subtext and the restriction of the full
    witness still verifies."""
    corpus = []
    for seed in range(20):
        t = gen_text(GenSpec(mode="random_efficient", n=2, seed=seed))
        corpus.append((t, translate(t)))
    for seed in range(31):
        t = gen_text(GenSpec(mode="random_efficient", n=3, seed=seed))
        corpus.append((t, translate(t)))
    for n in (3, 4, 5):
        lo = -1.0 / (n - 1) + 0.02
        for z in np.linspace(lo, 0.9, 7):
            if abs(z) < 0.02:
                continue
            t = validate_text(uniform_gram(n, float(z)))
            corpus.append((t, translate(t)))
    seed = 0
    found = 0
    while found < 15:
        t = gen_text(GenSpec(mode="random_efficient", n=4, seed=seed))
        seed += 1
        if not decide_translatable(t).translatable:
            continue
        corpus.append((t, translate(t)))
        found += 1
    shapes = [WellSplitShape(2, 0, ()), WellSplitShape(2, 1, (1,)),
              WellSplitShape(3, 0, ()), WellSplitShape(2, 1, (2,)),
              WellSplitShape(2, 2, (1, 1)), WellSplitShape(4, 0, ()),
              WellSplitShape(3, 1, (1,)), WellSplitShape(5, 0, ()),
              WellSplitShape(4, 1, (1,)), WellSplitShape(3, 2, (1, 1)),
              WellSplitShape(3, 1, (2,)), WellSplitShape(2, 1, (3,)),
              WellSplitShape(2, 2, (2, 1))]
    for s in shapes:
        r = realize_graph(shape_to_graph(s))
        corpus.append((r.text, r.witness))
    corpus = corpus[:100]
    assert len(corpus) == 100
    subsets_checked = 0
    for t, w in corpus:
        assert t.n <= 5
        for size in range(1, t.n + 1):
            for keep in itertools.combinations(range(t.n), size):
                ts = subtext(t, list(keep))
                assert decide_translatable(ts).translatable, (t.n, keep)
                rep = check_witness(ts, restrict_witness(t, w, list(keep)))
                assert rep.passed, (t.n, keep, rep)
                subsets_checked += 1
    print(f"subtext heredity: PASS (100 texts, {subsets_checked} subsets)")

"""Overlap-graph recognition, shape parameters, and isomorphism."""

import itertools

import numpy as np
import pytest

from qtext import (
    ForbiddenWitness,
    GenSpec,
    GraphClass,
    GraphError,
    InvalidShape,
    NotConnected,
    NotWellSplit,
    Splitting,
    WellSplitShape,
    all_splittings,
    connected_components,
    decide_translatable,
    gen_text,
    graph_of_text,
    graphs_isomorphic,
    induced_subgraph,
    make_graph,
    maximal_cliques,
    overlap_mask,
    parameterize,
    read_well_split,
    realize_graph,
    recognize,
    shape_to_graph,
    split_by_definition,
    validate_text,
)
from qtext import io as qio
from qtext.cli import main
from tests.conftest import near_zero_gram


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return make_graph(n, itertools.combinations(range(n), 2))


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield make_graph(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def referee_splitting(g):
    """The splitting `recognize` must return, straight from its rule: of
    all splittings, the one whose v2 holds the hub (highest degree, then
    lowest index), then the lexicographically smallest v2; None if none."""
    hub = min(range(g.n), key=lambda v: (-g.degree(v), v))
    return min(all_splittings(g), key=lambda s: (hub not in s.v2, sorted(s.v2)),
               default=None)


class TestGraphOfText:
    def test_edges_are_nonorthogonal_pairs(self, path3):
        g = graph_of_text(path3)
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_two_k2_pattern(self, two_k2):
        g = graph_of_text(two_k2)
        assert g.edges == frozenset({(0, 1), (2, 3)})

    def test_identity_gives_edgeless(self):
        g = graph_of_text(validate_text(np.eye(4)))
        assert g.edges == frozenset()

    def test_matches_entrywise_definition(self):
        rng = np.random.default_rng(19)
        for n in (1, 2, 3, 5, 8, 13, 32, 64):
            for _ in range(3):
                t = validate_text(near_zero_gram(n, rng))
                want = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                                 if abs(t.gram[i, j]) > 1e-9)
                g = graph_of_text(t)
                assert g.n == n and g.edges == want
                assert all(type(k) is int for edge in g.edges for k in edge)


class TestComponents:
    def test_two_components(self):
        g = make_graph(5, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]

    def test_induced_subgraph_relabels(self):
        g = make_graph(5, [(0, 2), (2, 4)])
        sub, old = induced_subgraph(g, [0, 2, 4])
        assert sub.n == 3
        assert sub.edges == frozenset({(0, 1), (1, 2)})
        assert old == [0, 2, 4]


class TestRecognize:
    def test_forbidden_two_k2(self):
        r = recognize(make_graph(4, [(0, 1), (2, 3)]))
        assert r.klass is GraphClass.NOT_SPLIT
        assert r.witness.kind == "TwoK2"
        assert sorted(r.witness.vertices) == [0, 1, 2, 3]

    def test_forbidden_c4(self):
        r = recognize(cycle(4))
        assert r.klass is GraphClass.NOT_SPLIT
        assert r.witness.kind == "C4"

    def test_forbidden_c5(self):
        r = recognize(cycle(5))
        assert r.klass is GraphClass.NOT_SPLIT
        assert r.witness.kind == "C5"

    def test_diamond_is_split_not_well_split(self):
        # K4 minus one edge
        g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        r = recognize(g)
        assert r.klass is GraphClass.SPLIT_NOT_WELL_SPLIT
        assert r.witness.kind == "Diamond"

    def test_star_is_well_split(self):
        r = recognize(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert r.klass is GraphClass.WELL_SPLIT

    def test_triangle_is_well_split(self):
        r = recognize(complete(3))
        assert r.klass is GraphClass.WELL_SPLIT
        assert set(r.splitting.v2) == {0, 1, 2}

    def test_edgeless_is_independent(self):
        r = recognize(make_graph(3, []))
        assert r.klass is GraphClass.INDEPENDENT

    def test_path4_is_well_split(self):
        # P4 splits as edge + two pendants
        r = recognize(path(4))
        assert r.klass is GraphClass.WELL_SPLIT

    def test_all_graphs_up_to_n4_agree_with_definition(self):
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
                g = make_graph(n, edges)
                is_split, is_well = split_by_definition(g)
                r = recognize(g)
                got_split = r.klass is not GraphClass.NOT_SPLIT
                got_well = r.klass in (GraphClass.WELL_SPLIT,
                                       GraphClass.INDEPENDENT)
                assert got_split == is_split, g.edges
                assert got_well == is_well, g.edges


class TestSplittings:
    def test_triangle_splittings(self):
        # v2 must be a clique covering all edges' endpoints
        sp = all_splittings(complete(3))
        assert any(set(s.v2) == {0, 1, 2} for s in sp)

    def test_maximal_cliques_diamond(self):
        g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        cl = sorted(sorted(c) for c in maximal_cliques(g))
        assert cl == [[0, 1, 2], [1, 2, 3]]

    def test_diamond_takes_the_first_clique_holding_the_hub(self):
        # K4 minus {0, 3}: both cliques hold the hub 1; {0, 1, 2} comes first
        g = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert recognize(g).splitting == Splitting(v1=frozenset({3}),
                                                   v2=frozenset({0, 1, 2}))

    def test_recognize_splitting_matches_referee_to_n6(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                assert recognize(g).splitting == referee_splitting(g), g.edges


class TestParameterize:
    def test_star4(self):
        # K_{1,3}: hub plus one pendant absorbed into the clique side
        sh = parameterize(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert (sh.n2, sh.ell, tuple(sh.m)) == (2, 1, (2,))

    def test_triangle_with_pendants(self):
        # triangle, one pendant on 0, two pendants on 1
        g = make_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (1, 5)])
        sh = parameterize(g)
        assert (sh.n2, sh.ell, tuple(sh.m)) == (3, 2, (2, 1))

    def test_single_edge(self):
        sh = parameterize(make_graph(2, [(0, 1)]))
        assert (sh.n2, sh.ell, tuple(sh.m)) == (2, 0, ())

    def test_rejects_disconnected(self):
        with pytest.raises(NotConnected):
            parameterize(make_graph(4, [(0, 1), (2, 3)]))

    def test_rejects_not_well_split(self):
        with pytest.raises(NotWellSplit):
            parameterize(cycle(4))

    def test_clique_count_matches_brute_force(self):
        # shape clique side must be a maximal clique of the graph
        g = make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 4)])
        sh = parameterize(g)
        clique = [v for v, lab in sh.labels.items() if lab.startswith("w")]
        assert sorted(clique) in [sorted(c) for c in maximal_cliques(g)]


class TestReadWellSplit:
    def test_core_anchors_and_isolated(self):
        # triangle 1-2-4, pendants 0 and 5 on 2, pendant 6 on 4, isolated 3
        g = make_graph(7, [(1, 2), (1, 4), (2, 4), (0, 2), (2, 5), (4, 6)])
        parts = read_well_split(g, recognize(g))
        assert parts.core == (1, 2, 4)
        assert list(parts.anchors.items()) == [(0, 2), (5, 2), (6, 4)]
        assert parts.isolated == (3,)

    def test_shape_matches_parameterize(self):
        g = make_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (1, 5)])
        assert read_well_split(g, recognize(g)).shape() == parameterize(g)

    @pytest.mark.parametrize("g", [
        make_graph(3, []), cycle(4),
        make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),  # diamond
    ])
    def test_rejects_other_classes(self, g):
        with pytest.raises(NotWellSplit):
            read_well_split(g, recognize(g))


class TestShapeToGraph:
    def test_round_trip(self):
        for n2, ell, m in [(2, 0, ()), (2, 1, (3,)), (3, 2, (2, 1)),
                           (4, 3, (2, 2, 1)), (5, 0, ())]:
            g = shape_to_graph(WellSplitShape(n2=n2, ell=ell, m=tuple(m)))
            sh = parameterize(g)
            assert (sh.n2, sh.ell, tuple(sh.m)) == (n2, ell, tuple(m))

    def test_rejects_more_anchors_than_clique(self):
        with pytest.raises(InvalidShape):
            shape_to_graph(WellSplitShape(n2=2, ell=3, m=(1, 1, 1)))

    def test_rejects_zero_pendant_count(self):
        with pytest.raises(InvalidShape):
            shape_to_graph(WellSplitShape(n2=3, ell=1, m=(0,)))

    def test_rejects_single_vertex_with_pendants(self):
        # a 1-clique with a pendant is just an edge: shape must say n2=2
        with pytest.raises(InvalidShape):
            shape_to_graph(WellSplitShape(n2=1, ell=1, m=(1,)))


class TestIsomorphism:
    def test_paths_same_length(self):
        assert graphs_isomorphic(path(4), make_graph(4, [(2, 0), (0, 1), (1, 3)]))

    def test_path_vs_star(self):
        star = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not graphs_isomorphic(path(4), star)

    def test_degree_sequence_shortcut(self):
        assert not graphs_isomorphic(complete(4), cycle(4))

    def test_c5_self(self):
        assert graphs_isomorphic(cycle(5), make_graph(5, [(0, 2), (2, 4), (4, 1),
                                                          (1, 3), (3, 0)]))


class TestHeredity:
    def test_well_split_closed_under_induced_subgraphs(self):
        g = shape_to_graph(WellSplitShape(n2=3, ell=2, m=(2, 1)))
        verts = range(g.n)
        for k in range(1, g.n + 1):
            for sub_v in itertools.combinations(verts, k):
                sub, _ = induced_subgraph(g, sub_v)
                _, is_well = split_by_definition(sub)
                assert is_well


# --- brute-force referee for the forbidden-subgraph witness -----------------

def induced_kind(g, sub):
    """Kind of forbidden graph that `sub` induces, or None.

    On four vertices the edge count and degree sequence tell 2K2, C4 and the
    diamond apart; on five, a 2-regular graph is the 5-cycle.
    """
    edges = [(a, b) for a, b in itertools.combinations(sub, 2) if g.has_edge(a, b)]
    degrees = tuple(sorted(sum(v in e for e in edges) for v in sub))
    kinds = {(4, 2, (1, 1, 1, 1)): "TwoK2", (4, 4, (2, 2, 2, 2)): "C4",
             (4, 5, (2, 2, 3, 3)): "Diamond", (5, 5, (2, 2, 2, 2, 2)): "C5"}
    return kinds.get((len(sub), len(edges), degrees))


def scan_forbidden(g):
    """First induced 2K2/C4, first diamond, first C5, in subset order,
    over every subset of the vertex set."""
    def first(size, wanted):
        for sub in itertools.combinations(range(g.n), size):
            kind = induced_kind(g, sub)
            if kind in wanted:
                return ForbiddenWitness(kind=kind, vertices=sub)
        return None

    return first(4, ("TwoK2", "C4")), first(4, ("Diamond",)), first(5, ("C5",))


def relabeled(g, perm):
    return make_graph(g.n, [(perm[i], perm[j]) for i, j in g.edges])


def seeded_graphs(n, rng):
    """Random graphs of every density, well-split graphs with isolated
    vertices under a random labelling, and the same with a diamond or a
    5-cycle planted."""
    out = []
    for p in np.linspace(0.1, 0.9, 9):
        out.append(make_graph(n, [e for e in itertools.combinations(range(n), 2)
                                  if rng.random() < p]))
    for _ in range(12):
        n2 = int(rng.integers(2, n + 1))
        pendants = int(rng.integers(0, n - n2 + 1))
        anchors = rng.integers(0, n2, size=pendants)
        edges = list(itertools.combinations(range(n2), 2))
        edges += [(int(a), n2 + k) for k, a in enumerate(anchors)]
        g = relabeled(make_graph(n, edges), rng.permutation(n).tolist())
        out.append(g)
        leaves = [v for v in range(n) if g.degree(v) == 1]
        if leaves:
            # a leaf joined to a second clique vertex induces a diamond
            v = leaves[0]
            (anchor,) = g.neighbors(v)
            others = [w for w in g.neighbors(anchor) if w != v and g.degree(w) >= 2]
            if others:
                out.append(make_graph(n, list(g.edges) + [(v, others[0])]))
        if n >= 5:
            five = rng.permutation(n)[:5].tolist()
            inside = {(min(a, b), max(a, b)) for a, b in itertools.combinations(five, 2)}
            ring = [(five[k], five[(k + 1) % 5]) for k in range(5)]
            out.append(make_graph(n, [e for e in g.edges if e not in inside] + ring))
    return out


class TestRecognizeAgainstReferees:
    def test_seeded_n7_to_12(self):
        rng = np.random.default_rng(7)
        seen = set()
        for n in range(7, 13):
            for g in seeded_graphs(n, rng):
                rec = recognize(g)
                seen.add(rec.klass)
                assert rec.splitting == referee_splitting(g), g.edges
                is_split, is_well = split_by_definition(g)
                assert (rec.klass is not GraphClass.NOT_SPLIT) == is_split, g.edges
                assert (rec.klass in (GraphClass.WELL_SPLIT,
                                      GraphClass.INDEPENDENT)) == is_well, g.edges
                first_split, first_diamond, first_c5 = scan_forbidden(g)
                if rec.klass is GraphClass.NOT_SPLIT:
                    expected = first_split or first_c5
                elif rec.klass is GraphClass.SPLIT_NOT_WELL_SPLIT:
                    expected = first_diamond
                else:
                    expected = None
                assert rec.witness == expected, g.edges
                if expected is not None:
                    assert induced_kind(g, rec.witness.vertices) == rec.witness.kind
        assert seen >= {GraphClass.NOT_SPLIT, GraphClass.SPLIT_NOT_WELL_SPLIT,
                        GraphClass.WELL_SPLIT}

    def test_splitting_restricts_to_the_component_with_edges(self):
        # decide_translatable reads the core and the pendants off the
        # splitting of the whole graph; it must be the splitting of the
        # component with edges recognized alone
        rng = np.random.default_rng(11)
        checked = 0
        for n in range(3, 13):
            for g in seeded_graphs(n, rng):
                rec = recognize(g)
                if rec.klass is not GraphClass.WELL_SPLIT:
                    continue
                (big,) = [c for c in connected_components(g) if len(c) >= 2]
                sub, vmap = induced_subgraph(g, big)
                sub_split = recognize(sub).splitting
                assert rec.splitting.v2 == {vmap[v] for v in sub_split.v2}
                assert rec.splitting.v1 & big == {vmap[v] for v in sub_split.v1}
                checked += 1
        assert checked >= 50


def text_of_graph(g, z_clique, z_pendant=0.1):
    """Text whose overlap graph is the well-split `g`: overlap z_clique
    inside the clique side, z_pendant on every other edge."""
    split = recognize(g).splitting
    clique = split.v2 if split is not None else frozenset()
    gram = np.eye(g.n, dtype=complex)
    for i, j in g.edges:
        z = z_clique if i in clique and j in clique else z_pendant
        gram[i, j] = gram[j, i] = z
    return validate_text(gram)


class TestDecideRecognizesOnce:
    def test_one_recognition_per_request(self, count_calls):
        calls = count_calls(recognize)
        star = make_graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
        texts = [
            validate_text(np.full((5, 5), 0.3) + 0.7 * np.eye(5)),
            text_of_graph(star, -0.1),
            text_of_graph(make_graph(4, [(0, 1), (2, 3)]), 0.3, 0.3),
        ]
        reasons = []
        for t in texts:
            before = len(calls)
            reasons.append(decide_translatable(t).reason)
            assert len(calls) == before + 1
        assert reasons == ["OK_FULLY_QUANTUM", "OK_MIXED", "NOT_WELL_SPLIT"]
        decide_translatable(validate_text(np.eye(4)))  # stops at the edge check
        assert len(calls) == len(texts)


class TestDecideRunsOneEigvalsh:
    """validate_text + decide_translatable on an efficient text with edges
    runs the signature's eigvalsh and no other, recognizes once on the
    overlap mask and builds no SimpleGraph; an edgeless text runs neither."""

    def test_fully_quantum_and_mixed(self, count_calls):
        star = make_graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
        grams = {
            "OK_FULLY_QUANTUM": np.full((6, 6), 0.3) + 0.7 * np.eye(6),
            "THEOREM_F_FAIL": gen_text(GenSpec(mode="random_efficient", n=5, seed=2)).gram,
            "OK_MIXED": text_of_graph(star, -0.1).gram,
        }
        eig = count_calls(np.linalg.eigvalsh, np.linalg)
        graphs = count_calls(graph_of_text)
        recs = count_calls(recognize)
        for reason, gram in grams.items():
            before = len(eig), len(recs)
            assert decide_translatable(validate_text(gram)).reason == reason
            assert (len(eig), len(recs)) == (before[0] + 1, before[1] + 1)
            assert isinstance(recs[-1][0], np.ndarray)
        decide_translatable(validate_text(np.eye(4)))
        assert (len(eig), len(recs)) == (len(grams), len(grams))
        assert graphs == []

    def test_mask_and_graph_recognize_alike(self):
        rng = np.random.default_rng(41)
        for n in [4] * 50 + [6] * 50 + [9, 16]:
            t = validate_text(near_zero_gram(n, rng))
            adj, g = overlap_mask(t.gram), graph_of_text(t)
            rec = recognize(adj)
            assert rec == recognize(g)
            if rec.klass is GraphClass.WELL_SPLIT:
                assert read_well_split(adj, rec) == read_well_split(g, rec)


class TestRequestPathsRunNoReferee:
    def test_no_clique_enumeration(self, count_calls, tmp_path):
        graphs = [
            complete(5),
            # a 4-clique with pendants on 0 and 1, plus an isolated vertex
            make_graph(8, list(itertools.combinations(range(4), 2))
                       + [(0, 4), (0, 5), (1, 6)]),
            make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
            cycle(4),
        ]
        texts = [text_of_graph(g, -0.1) for g in graphs]
        cliques = count_calls(maximal_cliques)
        splittings = count_calls(all_splittings)
        out = str(tmp_path / "report.json")
        for g, t in zip(graphs, texts):
            decide_translatable(t)
            for request in (realize_graph, parameterize):
                try:
                    request(g)
                except GraphError:  # not well-split, or not connected
                    pass
            path = str(tmp_path / "g.json")
            qio.save_graph(g, path)
            assert main(["analyze", "-g", path, "-o", out]) == 0
        assert cliques == [] and splittings == []


class TestDecideAt64:
    def test_uniform(self):
        t = validate_text(np.full((64, 64), 0.3) + 0.7 * np.eye(64))
        d = decide_translatable(t)
        assert d.reason == "OK_FULLY_QUANTUM"
        assert d.decomposition.core == tuple(range(64))

    def test_mixed_well_split(self):
        # 36-clique, four pendants on each of w0..w5, four isolated states,
        # labels shuffled
        edges = list(itertools.combinations(range(36), 2))
        edges += [(k // 4, 36 + k) for k in range(24)]
        perm = np.random.default_rng(3).permutation(64).tolist()
        g = relabeled(make_graph(64, edges), perm)
        d = decide_translatable(text_of_graph(g, -0.01))
        assert d.reason == "OK_MIXED"
        assert d.decomposition.core == tuple(sorted(perm[v] for v in range(36)))
        assert d.decomposition.anchors == {
            perm[36 + k]: perm[k // 4] for k in range(24)}
        assert d.decomposition.isolated == tuple(sorted(perm[v] for v in range(60, 64)))

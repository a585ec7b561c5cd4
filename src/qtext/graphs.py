"""Overlap graphs of texts and their recognition.

The overlap graph of a text has one vertex per state and an edge for every
*non-orthogonal* pair, so classical texts are edgeless and texts without
orthogonal pairs are complete.  Translatability only depends on whether
that graph is split with pendants: the vertex set divides into an
independent part V1 and a maximal complete part V2, and in every such
division each V1 vertex has at most one neighbour.  Equivalently, the
graph avoids four induced subgraphs: two disjoint edges, the 4-cycle, the
diamond (K4 minus an edge), and the 5-cycle.

`recognize` reads splitness and one splitting off the degree order
(Hammer & Simeone, *The splittance of a graph*, 1981) and decides
well-splitness from that splitting.  Only a refusal searches for a
forbidden induced subgraph, and it reports the first one in lexicographic
subset order.  `read_well_split` is the one read-off of an accepted
graph's recognition: its clique core, pendant anchors and isolated
vertices.  `maximal_cliques`, `all_splittings` and `split_by_definition`
enumerate from the definitions; they are referees for tests and demos,
and no request path calls them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .texts import Text, _orthogonal


class GraphError(ValueError):
    pass


class NotConnected(GraphError):
    pass


class NotWellSplit(GraphError):
    pass


class InvalidShape(GraphError):
    pass


class TooLarge(GraphError):
    pass


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..n-1 with edges as (i, j), i < j."""

    n: int
    edges: frozenset[tuple[int, int]]
    # Neighbour sets, built once from `edges` so that degree and
    # neighbour queries cost O(1) and O(degree).
    _adj: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adj = [set() for _ in range(self.n)]
        for (i, j) in self.edges:
            if not (0 <= i < j < self.n):
                raise GraphError(f"bad edge ({i}, {j}) for n = {self.n}")
            adj[i].add(j)
            adj[j].add(i)
        object.__setattr__(self, "_adj", tuple(frozenset(a) for a in adj))

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]


def make_graph(n: int, edges) -> SimpleGraph:
    """Normalize an edge list into a SimpleGraph."""
    if n < 1:
        raise GraphError("graph needs at least one vertex")
    norm = set()
    for (i, j) in edges:
        if i == j:
            raise GraphError(f"self-loop at {i}")
        norm.add((min(i, j), max(i, j)))
    return SimpleGraph(n=n, edges=frozenset(norm))


def graph_of_text(t: Text) -> SimpleGraph:
    """Overlap graph: edge (i, j) iff |z_ij| > 1e-9."""
    # Masking i < j costs less than np.triu_indices at small n.
    i, j = np.nonzero(~_orthogonal(t.gram))
    upper = i < j
    return SimpleGraph(n=t.n, edges=frozenset(zip(i[upper].tolist(), j[upper].tolist())))


def connected_components(g: SimpleGraph) -> list[frozenset[int]]:
    """Components as vertex sets, ordered by smallest contained vertex."""
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        stack = [root]
        seen[root] = True
        comp = {root}
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        comps.append(frozenset(comp))
    return comps


def induced_subgraph(g: SimpleGraph, vertices) -> tuple[SimpleGraph, list[int]]:
    """Induced subgraph on `vertices` (relabeled 0..k-1) plus the vertex map."""
    vs = sorted(vertices)
    pos = {v: i for i, v in enumerate(vs)}
    edges = [(pos[i], pos[j]) for (i, j) in g.edges if i in pos and j in pos]
    return SimpleGraph(n=len(vs), edges=frozenset(edges)), vs


# --- forbidden induced subgraphs ------------------------------------------

# (size, edge count, maximum degree) of each forbidden induced subgraph; no
# other graph on four or five vertices has the same triple.
_SIGNATURES = {"TwoK2": (4, 2, 1), "C4": (4, 4, 2), "Diamond": (4, 5, 3), "C5": (5, 5, 2)}


@dataclass(frozen=True)
class ForbiddenWitness:
    """An induced subgraph certifying non-well-splitness.

    kind is one of 'TwoK2', 'C4', 'Diamond', 'C5'; vertices are the
    (sorted) vertex indices inducing it.
    """

    kind: str
    vertices: tuple[int, ...]


class GraphClass(Enum):
    INDEPENDENT = "Independent"
    WELL_SPLIT = "WellSplit"
    SPLIT_NOT_WELL_SPLIT = "SplitNotWellSplit"
    NOT_SPLIT = "NotSplit"


@dataclass(frozen=True)
class Splitting:
    """Partition into an independent set v1 and a maximal complete set v2."""

    v1: frozenset[int]
    v2: frozenset[int]


def _first_forbidden(g: SimpleGraph, kinds: tuple[str, ...],
                     min_degree: int) -> ForbiddenWitness | None:
    """First induced subgraph of one of `kinds` (all of one size), in
    lexicographic subset order.

    Only vertices of degree >= `min_degree` can lie on such a subgraph, so
    only they are combined; dropping vertices keeps the subset order.  A
    subset is named by its size, edge count and maximum degree.
    """
    size = _SIGNATURES[kinds[0]][0]
    wanted = {_SIGNATURES[kind][1:]: kind for kind in kinds}
    pairs = list(itertools.combinations(range(size), 2))
    adj = [g.neighbors(v) for v in range(g.n)]
    candidates = [v for v in range(g.n) if len(adj[v]) >= min_degree]
    for sub in itertools.combinations(candidates, size):
        deg = [0] * size
        for a, b in pairs:
            if sub[b] in adj[sub[a]]:
                deg[a] += 1
                deg[b] += 1
        kind = wanted.get((sum(deg) // 2, max(deg)))
        if kind is not None:
            return ForbiddenWitness(kind=kind, vertices=sub)
    return None


def _splitting(g: SimpleGraph) -> Splitting | None:
    """The splitting read off the degree order, or None when g is not split.

    With the vertices ordered by (-degree, index), degrees d_0 >= d_1 >= ...
    and m = #{i : d_i >= i}, g is split iff sum_{i<m} d_i = m(m - 1) +
    sum_{i>=m} d_i (Hammer-Simeone), and then the first m vertices K are a
    maximal clique with an independent complement.  Any other such
    splitting is K - u + v with u in K and v outside, both of degree m - 1,
    so u precedes v in the order and u < v.  K thus holds the hub (the
    first vertex) and is the lexicographically smallest v2 that does.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    d = [g.degree(v) for v in order]
    m = sum(1 for i, di in enumerate(d) if di >= i)
    if sum(d[:m]) != m * (m - 1) + sum(d[m:]):
        return None
    return Splitting(v1=frozenset(order[m:]), v2=frozenset(order[:m]))


def maximal_cliques(g: SimpleGraph) -> list[frozenset[int]]:
    """All maximal cliques (Bron-Kerbosch), in a deterministic order."""
    adj = [g.neighbors(v) for v in range(g.n)]
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(frozenset(), frozenset(range(g.n)), frozenset())
    return sorted(out, key=lambda c: sorted(c))


def all_splittings(g: SimpleGraph) -> list[Splitting]:
    """Every partition (v1, v2) with v2 a maximal clique and v1 independent."""
    out = []
    for clique in maximal_cliques(g):
        rest = frozenset(range(g.n)) - clique
        if all(g.neighbors(v).isdisjoint(rest) for v in rest):
            out.append(Splitting(v1=rest, v2=clique))
    return out


def split_by_definition(g: SimpleGraph) -> tuple[bool, bool]:
    """(is_split, is_well_split) straight from the definitions.

    Split: some maximal clique has an independent complement.  Well-split:
    split, and in *every* splitting each v1 vertex has degree at most one.
    Independent of `recognize`; used as its cross-check.
    """
    splittings = all_splittings(g)
    if not splittings:
        return False, False
    well = all(g.degree(v) <= 1 for s in splittings for v in s.v1)
    return True, well


@dataclass(frozen=True)
class RecognitionResult:
    klass: GraphClass
    splitting: Splitting | None
    witness: ForbiddenWitness | None


def recognize(g: SimpleGraph) -> RecognitionResult:
    """Classify a graph as Independent (no edges), WellSplit,
    SplitNotWellSplit or NotSplit.

    Splitness and the Splitting come from one degree order (Hammer-Simeone,
    see `_splitting`).  v2 is a maximal clique, and a split graph is
    well-split iff every v1 vertex has degree <= 1.  (A v1 vertex a with
    neighbours c, d and a clique vertex b outside N(a), which exists
    because v2 is maximal, induce a diamond; conversely every diamond puts
    a vertex of degree >= 2 into v1 of every splitting.)  Only a graph that
    is not well-split is searched for its ForbiddenWitness: the first
    induced 2K2 or C4, else the first C5, when not split; the first
    diamond when split.  "First" is in lexicographic subset order.
    """
    splitting = _splitting(g)
    if splitting is None:
        witness = (_first_forbidden(g, ("TwoK2", "C4"), 1)
                   or _first_forbidden(g, ("C5",), 2))
        return RecognitionResult(GraphClass.NOT_SPLIT, None, _certified(witness))
    if any(g.degree(v) > 1 for v in splitting.v1):
        witness = _first_forbidden(g, ("Diamond",), 2)
        return RecognitionResult(GraphClass.SPLIT_NOT_WELL_SPLIT, splitting,
                                 _certified(witness))
    klass = GraphClass.WELL_SPLIT if g.edges else GraphClass.INDEPENDENT
    return RecognitionResult(klass, splitting, None)


def _certified(witness: ForbiddenWitness | None) -> ForbiddenWitness:
    if witness is None:
        raise GraphError("internal: a refused graph has no forbidden subgraph")
    return witness


@dataclass(frozen=True)
class WellSplitShape:
    """Parameter triple of a connected well-split graph.

    n2 clique vertices w_1..w_{n2}; the first `ell` of them carry
    m_1 >= ... >= m_ell pendant vertices.  `labels` maps each original
    vertex to its role label ('w3' or 'v2,1').
    """

    n2: int
    ell: int
    m: tuple[int, ...]
    labels: dict[int, str] = field(compare=False, default_factory=dict)


@dataclass(frozen=True)
class WellSplitParts:
    """The clique core, the pendant -> anchor map and the isolated vertices
    of a well-split graph, each in increasing vertex order.  An edgeless
    graph (a classical text) has an empty core, no anchors and every
    vertex isolated."""

    core: tuple[int, ...]
    anchors: dict[int, int]
    isolated: tuple[int, ...]

    def shape(self) -> WellSplitShape:
        """The shape of the graph, which must be connected (no isolated
        vertices): clique vertices ordered by pendant count, then index."""
        pend_of = {}
        for v, w in self.anchors.items():
            pend_of.setdefault(w, []).append(v)
        order = sorted(self.core, key=lambda w: (-len(pend_of.get(w, [])), w))
        m = tuple(len(pend_of[w]) for w in order if w in pend_of)
        labels = {}
        for i, w in enumerate(order, start=1):
            labels[w] = f"w{i}"
            for j, v in enumerate(pend_of.get(w, []), start=1):
                labels[v] = f"v{i},{j}"
        return WellSplitShape(n2=len(self.core), ell=len(m), m=m, labels=labels)


def read_well_split(g: SimpleGraph, rec: RecognitionResult) -> WellSplitParts:
    """The one read-off of a well-split graph from its recognition.

    v1 of the splitting holds the pendants (degree 1) and the isolated
    vertices (degree 0).  Restricted to the one component with edges, the
    splitting is the one `recognize` would give that component alone:
    isolated vertices come last in the degree order with degree 0, so they
    change neither m nor the first m vertices.  Raises NotWellSplit for any
    other class, the edgeless Independent one included.
    """
    if rec.klass is not GraphClass.WELL_SPLIT:
        raise NotWellSplit(f"graph is {rec.klass.value}")
    anchors = {}
    isolated = []
    for v in sorted(rec.splitting.v1):
        if g.neighbors(v):
            (anchors[v],) = g.neighbors(v)
        else:
            isolated.append(v)
    return WellSplitParts(core=tuple(sorted(rec.splitting.v2)), anchors=anchors,
                          isolated=tuple(isolated))


def parameterize(g: SimpleGraph) -> WellSplitShape:
    """Extract (n2, ell, m) from a connected well-split graph with n >= 2."""
    if g.n < 2:
        raise InvalidShape("parameterization needs at least two vertices")
    if len(connected_components(g)) != 1:
        raise NotConnected("parameterization needs a connected graph")
    return read_well_split(g, recognize(g)).shape()


def shape_to_graph(shape: WellSplitShape) -> SimpleGraph:
    """Build the canonical graph of a shape: clique 0..n2-1, then pendants.

    Pendants of w_i occupy consecutive indices after the clique, grouped by
    i.  Raises InvalidShape for n2 < 1, for ell outside 0..n2, for
    len(m) != ell, for a non-positive entry of m, and for n2 = 1 with
    pendants (that graph is a star whose canonical shape has n2 = 2).  An m
    that is not non-increasing is accepted as given.
    """
    if shape.n2 < 1:
        raise InvalidShape("n2 must be at least 1")
    if shape.ell > shape.n2 or shape.ell < 0:
        raise InvalidShape(f"ell = {shape.ell} exceeds n2 = {shape.n2}")
    if len(shape.m) != shape.ell:
        raise InvalidShape("len(m) must equal ell")
    if any(mj <= 0 for mj in shape.m):
        raise InvalidShape("pendant counts must be positive")
    if shape.n2 == 1 and shape.ell >= 1:
        raise InvalidShape("a lone clique vertex cannot carry pendants")
    edges = [(i, j) for i in range(shape.n2) for j in range(i + 1, shape.n2)]
    nxt = shape.n2
    for i in range(shape.ell):
        for _ in range(shape.m[i]):
            edges.append((i, nxt))
            nxt += 1
    return SimpleGraph(n=nxt, edges=frozenset(edges))


def graphs_isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    """Backtracking isomorphism test for graphs with at most 10 vertices."""
    if a.n > 10 or b.n > 10:
        raise TooLarge("isomorphism test limited to 10 vertices")
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    da = sorted(a.degree(v) for v in range(a.n))
    db = sorted(b.degree(v) for v in range(b.n))
    if da != db:
        return False
    adj_a = [a.neighbors(v) for v in range(a.n)]
    adj_b = [b.neighbors(v) for v in range(b.n)]
    order = sorted(range(a.n), key=lambda v: -len(adj_a[v]))
    mapping = {}
    used = set()

    def extend(k: int) -> bool:
        if k == a.n:
            return True
        v = order[k]
        for w in range(b.n):
            if w in used or len(adj_b[w]) != len(adj_a[v]):
                continue
            ok = True
            for u in mapping:
                if (u in adj_a[v]) != (mapping[u] in adj_b[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend(0)

#!/usr/bin/env python3
"""Realizing orthogonality patterns: from a graph back to a text.

Which patterns of "these pairs overlap, those are orthogonal" admit a
translatable text at all?  Exactly the well-split graphs.  The realization
route picks a small negative overlap on the clique, hangs each pendant off
its anchor, and certifies the result through `translate`'s one route, so
the witness of a graph with edges, with Q in (0, 1], is the one
`translate` gives that text.  A graph without edges, "all isolated" below,
gets the identity text and its own witness with Q = 1, while `translate`
clones that text with Q = 0.
"""

import numpy as np

from qtext import (
    GraphError,
    SimpleGraph,
    check_witness,
    decide_translatable,
    graph_of_text,
    realize_graph,
)

np.set_printoptions(precision=4, suppress=True)

cases = {
    "single edge": SimpleGraph(2, frozenset({(0, 1)})),
    "triangle + 2 pendants": SimpleGraph(5, frozenset(
        {(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)})),
    "star on 5 vertices": SimpleGraph(5, frozenset(
        {(0, 1), (0, 2), (0, 3), (0, 4)})),
    "triangle + isolated states": SimpleGraph(5, frozenset(
        {(0, 1), (0, 2), (1, 2)})),
    "all isolated": SimpleGraph(3, frozenset()),
}

for name, g in cases.items():
    print(f"=== {name} ===")
    r = realize_graph(g)
    same = graph_of_text(r.text) == g
    rep = check_witness(r.text, r.witness)
    print(r.text.gram.real)
    print(f"graph reproduced exactly: {same};  Q = {r.witness.Q:.3g};  "
          f"verified: {rep.passed} (r1 = {rep.r1:.1e})")
    d = decide_translatable(r.text)
    print(f"classifier agrees: {d.translatable} ({d.reason})\n")

print("=== graphs that cannot be realized ===")
diamond = SimpleGraph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}))
try:
    realize_graph(diamond)
except GraphError as exc:
    print(f"diamond refused: {type(exc).__name__}: {exc}")

# two components with an edge each hide a pair of disjoint edges, one of
# the four forbidden patterns, so at most one component may carry edges
two_cliques = SimpleGraph(5, frozenset({(0, 1), (0, 2), (1, 2), (3, 4)}))
try:
    realize_graph(two_cliques)
except GraphError as exc:
    print(f"two cliques refused: {type(exc).__name__}: {exc}")

"""Byte guard for the graph layer.

One sha256 over the `qtext analyze` report of every labeled graph with at
most five vertices, and over `decision_to_dict` of `decide_translatable`
on the seed-0 `from_graph` text of each graph.  Both outputs hold only
integers and labels, so the digest does not depend on the machine; it was
recorded from the code before recognition was consolidated and must not
move under refactors of the graph layer.
"""

import hashlib
import itertools
import json

from qtext import GenSpec, decide_translatable, gen_text, make_graph
from qtext import io as qio
from qtext.cli import main

DIGEST = "0d63927e4a14419c50717e6aa0c8b0e490f5eed8a3f33ab353929bbd1fc6b780"


def labeled_graphs(max_n):
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            yield make_graph(n, [p for k, p in enumerate(pairs) if bits >> k & 1])


def test_analyze_and_decide_bytes_for_every_graph_to_n5(capsys, tmp_path):
    path = str(tmp_path / "g.json")
    digest = hashlib.sha256()
    count = 0
    for g in labeled_graphs(5):
        qio.save_graph(g, path)
        assert main(["analyze", "-g", path]) == 0
        digest.update(capsys.readouterr().out.encode())
        d = decide_translatable(gen_text(GenSpec(mode="from_graph", n=g.n, seed=0,
                                                 graph=g)))
        digest.update(json.dumps(qio.decision_to_dict(d), sort_keys=True).encode())
        count += 1
    assert count == 1 + 2 + 8 + 64 + 1024
    assert digest.hexdigest() == DIGEST

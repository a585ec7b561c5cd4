"""Byte guard for the command line.

One sha256 over the exit code, stdout and stderr of a fixed corpus of
`qtext` calls whose outputs hold only integers, booleans and strings:
`validate`, `graph`, `analyze`, `classify` with and without `--q0`,
`translate` on refused texts, `realize` on refused graphs, every malformed
file of `TestMalformedJson` under each command that reads its kind of
file, a missing file for each input flag, and `gen` errors, each with and
without `--json`.  Calls whose output carries computed floats (witnesses,
verification reports, generated texts) add their exit code only, and so
do argparse usage errors and `--help`: argparse wraps its text to the
terminal width and formats it differently across Python versions.  Files
are named relative to the working directory, so no message holds a
machine's path.  The digest was recorded from the code before the
subcommands declared their inputs and error codes in one table, and
re-recorded once when a JSON object without a required key stopped
ending in a bare `KeyError: 'gram'`: exactly the 60 calls that did so
now report `ValueError: the JSON object has no 'gram' key`, with the same
exit code 2.  It must not move under refactors of the command line.
"""

import hashlib
import json

import numpy as np

from qtext import GenSpec, gen_text, make_graph, validate_text
from qtext import io as qio
from qtext.cli import main
from tests.conftest import uniform_gram
from tests.test_cli import MALFORMED

DIGEST = "c7cb092bf69bfcc8c7d002b7be2b766b782cde90eaad38a153cbd5b791840a91"

COMMANDS = ("validate", "graph", "analyze", "classify", "translate", "realize",
            "verify", "gen")

GRAPHS = {
    "k3": make_graph(3, [(0, 1), (0, 2), (1, 2)]),
    "star": make_graph(4, [(0, 1), (0, 2), (0, 3)]),
    "paw": make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "p4": make_graph(4, [(0, 1), (1, 2), (2, 3)]),
    "c4": make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "2k2": make_graph(4, [(0, 1), (2, 3)]),
    "k3_iso": make_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3)]),
    "empty": make_graph(3, []),
}


def _texts():
    texts = {
        "u3p": validate_text(uniform_gram(3, 0.5)),
        "u3n": validate_text(uniform_gram(3, -0.25)),
        "id3": validate_text(np.eye(3)),
        "border": validate_text(np.array([[1.0, 0.3, 2e-9], [0.3, 1.0, 0.3],
                                          [2e-9, 0.3, 1.0]])),
    }
    for seed in range(3):
        texts[f"re{seed}"] = gen_text(GenSpec(mode="random_efficient", n=4, seed=seed))
        texts[f"u4_{seed}"] = gen_text(GenSpec(mode="untranslatable4", seed=seed))
    for name, g in GRAPHS.items():
        texts[f"fg_{name}"] = gen_text(GenSpec(mode="from_graph", n=g.n, seed=0, graph=g))
    return texts


def _corpus(texts):
    """(argv, hashed) for every call, in order.  hashed is True or False
    for calls whose output is always or never hashed, and None for
    commands whose success writes floats: their output is hashed only when
    they fail or refuse."""
    for name in texts:
        f = f"{name}.json"
        for cmd in (["validate"], ["graph"], ["classify"], ["classify", "--q0"]):
            yield [*cmd, "-i", f], True
        for cmd in (["translate"], ["translate", "--q0"], ["translate", "--sign", "+"]):
            yield [*cmd, "-i", f], None
    for name in GRAPHS:
        yield ["analyze", "-g", f"g_{name}.json"], True
        yield ["realize", "-g", f"g_{name}.json"], None
    for text, witness in (("u3p", "w"), ("u3n", "w"), ("u3p", "w_tampered"),
                          ("u3p", "w_short")):
        yield ["verify", "-i", f"{text}.json", "-w", f"{witness}.json"], False
    readers = {"-i": [["validate"], ["graph"], ["classify"], ["translate"],
                      ["verify", "-w", "w.json"]],
               "-g": [["analyze"], ["realize"], ["gen", "--mode", "from_graph"]],
               "-w": [["verify", "-i", "u3p.json"]]}
    for k, (argv, _) in enumerate(MALFORMED):
        flag = next(f for f in readers if f in argv)
        for cmd in readers[flag]:
            yield [*cmd, flag, f"bad{k}.json"], True
    for flag, cmds in readers.items():
        for cmd in cmds:
            yield [*cmd, flag, "missing.json"], True
    for spec in (["--mode", "from_graph"], ["--mode", "uniform", "--z", "2"],
                 ["--mode", "uniform", "--n", "1"],
                 ["--mode", "uniform", "--z", "-0.9", "--n", "4"],
                 ["--mode", "uniform", "--z", "0.3", "--n", "4"]):
        yield ["gen", *spec], None


def _usage():
    """Calls that argparse ends: the exit code is all they add."""
    yield []
    yield ["frobnicate"]
    yield ["--help"]
    for cmd in COMMANDS:
        yield [cmd, "--help"]
        yield [cmd, "--bogus"]
        yield [cmd]
    yield ["translate", "-i", "id3.json", "--q0", "--sign", "+"]
    yield ["translate", "-i", "id3.json", "--sign", "x"]
    yield ["gen", "--mode", "bogus"]
    yield ["gen", "--mode", "uniform", "--n", "abc"]


def _dump(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _write_inputs(capsys, texts):
    for name, t in texts.items():
        qio.save_text(t, f"{name}.json")
    for name, g in GRAPHS.items():
        qio.save_graph(g, f"g_{name}.json")
    assert main(["translate", "-i", "u3p.json", "-o", "w.json"]) == 0
    w = qio.load_json("w.json")
    tampered = json.loads(json.dumps(w))
    tampered["output_gram"][0][1][0] += 0.02
    tampered["output_gram"][1][0][0] += 0.02
    _dump(tampered, "w_tampered.json")
    _dump({**w, "tablet": w["tablet"][:1]}, "w_short.json")
    for k, (_, payload) in enumerate(MALFORMED):
        _dump(payload(w) if callable(payload) else payload, f"bad{k}.json")
    capsys.readouterr()


def test_cli_bytes_of_a_fixed_corpus(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    texts = _texts()
    _write_inputs(capsys, texts)
    digest = hashlib.sha256()
    count = 0
    for argv, hashed in _corpus(texts):
        for extra in ([], ["--json"]):
            code = main([*argv, *extra])
            out = capsys.readouterr()
            digest.update(f"{code}\n".encode())
            if hashed or (hashed is None and code != 0):
                digest.update(out.out.encode() + b"\0" + out.err.encode() + b"\0")
            count += 1
    for argv in _usage():
        digest.update(f"{main(argv)}\n".encode())
        capsys.readouterr()
        count += 1
    assert count == 543
    assert digest.hexdigest() == DIGEST

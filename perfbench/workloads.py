"""Seeded corpora, requests and output checks of the four workloads.

A corpus is a fixed list of requests built from the run's seed; a run
replays it in whole passes.  Every request carries its own check, and every
check compares the program's answer with something the program did not
compute: a closed form, the way the text was built, or the numpy routines
in `checks`.  `qtext` is reached through module attributes at call time,
so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import qtext
import qtext.io
import qtext.synth

from checks import (
    check_output_gram,
    core_signs,
    edges_of,
    induced_kind,
    inertia,
    is_efficient,
    require,
    sign_of,
    uniform_signs,
    unitarity_defect,
    witness_r1,
    R1_TOL,
    UNITARITY_TOL,
)

ORACLE_SAMPLES = 20000
ORACLE_SEED = 7
CLI_TIMEOUT_S = 60.0

WORKLOAD_TAGS = {"decide": 1, "translate": 2, "oracle": 3, "cli": 4}


@dataclass
class Request:
    """One unit of closed-loop work: `run` is timed, `check` is not.

    `kept_failure` names the exception a known fault raises on this input;
    such a request counts as failed instead of failing the run.
    """

    label: str
    n: int
    run: Callable[[], Any]
    check: Callable[[Any], None]
    kept_failure: type | None = None
    subcommand: str | None = None


@dataclass
class Corpus:
    workload: str
    requests: list[Request]
    warmup: list[Request]
    largest_n: int
    runner: Any = None


# --- corpus texts --------------------------------------------------------------

def gen(mode: str, n: int = 3, seed: int = 0, z: float | None = None,
        edges=None) -> np.ndarray:
    graph = None if edges is None else qtext.make_graph(n, edges)
    spec = qtext.GenSpec(mode=mode, n=n, seed=int(seed), z=z, graph=graph)
    return np.array(qtext.gen_text(spec).gram)


def classical(rng, n: int) -> np.ndarray:
    """Near-orthogonal family: off-diagonal moduli at most 5e-10."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    off = (raw + raw.conj().T) / 2.0
    off *= 5e-10 / np.max(np.abs(off))
    np.fill_diagonal(off, 0.0)
    return np.eye(n, dtype=complex) + off


def not_efficient(rng, n: int) -> np.ndarray:
    """n random unit vectors in n - 1 complex dimensions."""
    v = rng.standard_normal((n - 1, n)) + 1j * rng.standard_normal((n - 1, n))
    v /= np.linalg.norm(v, axis=0)
    g = v.conj().T @ v
    g = (g + g.conj().T) / 2.0
    np.fill_diagonal(g, 1.0)
    return g


def well_split_edges(n: int, core: int, isolated: int = 0):
    """Clique 0..core-1; the next n - core - isolated vertices are pendants
    attached round-robin to the clique; the last `isolated` are isolated."""
    edges = [(i, j) for i in range(core) for j in range(i + 1, core)]
    for k, p in enumerate(range(core, n - isolated)):
        edges.append((k % core, p))
    return edges


def forbidden_edges(n: int, kind: str):
    """A graph on n vertices containing the named forbidden subgraph; all
    vertices outside it are isolated."""
    if kind == "TwoK2":
        return [(0, 1), (2, 3)]
    if kind == "C4":
        return [(0, 1), (1, 2), (2, 3), (0, 3)]
    if kind == "C5":
        return [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    if kind == "Diamond":
        k = max(3, n // 2)
        return [(i, j) for i in range(k) for j in range(i + 1, k)] + [(0, k), (1, k)]
    raise ValueError(kind)


def uniform_z(rng, n: int, positive: bool) -> float:
    if positive:
        return float(rng.uniform(0.1, 0.8))
    return -float(rng.uniform(0.2, 0.8)) / (n - 1)


def first_seed(rng, make, accept) -> np.ndarray:
    """First text from consecutive seeded draws that `accept` (a test on
    the independent inertia) admits."""
    for _ in range(1000):
        z = make(int(rng.integers(1 << 30)))
        if accept(z):
            return z
    raise RuntimeError("no text in 1000 draws met the corpus condition")


def embed_block(n: int, idx, block: np.ndarray) -> np.ndarray:
    z = np.eye(n, dtype=complex)
    z[np.ix_(idx, idx)] = block
    return z


# --- decide --------------------------------------------------------------------

def decide_request(label, z, reason, signs=None) -> Request:
    n = z.shape[0]

    def run():
        return qtext.decide_translatable(qtext.validate_text(z))

    def check(d):
        require(d.reason == reason, f"{label}: reason {d.reason}, expected {reason}")
        if signs is not None:
            require(d.sign_constraint == signs,
                    f"{label}: sign constraint {d.sign_constraint}, expected {set(signs)}")
        if reason == "NOT_WELL_SPLIT":
            fw = d.forbidden_witness
            require(fw is not None, f"{label}: no forbidden witness")
            require(induced_kind(z, fw.vertices) == fw.kind,
                    f"{label}: vertices {fw.vertices} do not induce {fw.kind}")

    return Request(label, n, run, check)


# Copies per size are chosen so that each median falls inside a group of
# requests of nearly equal cost: the whole-corpus median on the C4, 2K2 and
# C5 texts at n = 16, the n = 32 median on the three mixed texts.
DECIDE_KINDS = {4: ("C4", "TwoK2"), 8: ("TwoK2",), 16: ("Diamond", "C4", "TwoK2", "C5"),
                24: ("C5", "C4", "TwoK2", "Diamond"), 32: ("Diamond",)}
DECIDE_RANDOM = {16: 2}
DECIDE_MIXED = {16: 2, 32: 3}


def fq_expectation(z: np.ndarray):
    if not is_efficient(z):
        return "NOT_EFFICIENT", None
    signs = core_signs(z)
    return ("OK_FULLY_QUANTUM" if signs else "THEOREM_F_FAIL"), signs


def build_decide(rng, tiny: bool) -> Corpus:
    sizes = (4, 8) if tiny else (4, 8, 16, 24, 32)
    reqs = []
    for n in sizes:
        reqs.append(decide_request(f"classical/n{n}", classical(rng, n), "OK_CLASSICAL"))
        reqs.append(decide_request(f"not_efficient/n{n}", not_efficient(rng, n),
                                   "NOT_EFFICIENT"))
        for positive, tag in ((True, "uniform+"), (False, "uniform-")):
            z = uniform_z(rng, n, positive)
            reqs.append(decide_request(f"{tag}/n{n}", gen("uniform", n, z=z),
                                       "OK_FULLY_QUANTUM", uniform_signs(z)))
        for _ in range(DECIDE_RANDOM.get(n, 1)):
            z = gen("random_efficient", n, seed=rng.integers(1 << 30))
            reason, signs = fq_expectation(z)
            reqs.append(decide_request(f"random/n{n}", z, reason, signs))
        core = max(3, n // 2)
        isolated = 1 if n >= 8 else 0
        for _ in range(DECIDE_MIXED.get(n, 1)):
            z = gen("from_graph", n, seed=rng.integers(1 << 30),
                    edges=well_split_edges(n, core, isolated))
            ok = +1 in core_signs(z[:core, :core])
            reqs.append(decide_request(f"mixed/n{n}", z, "OK_MIXED" if ok else "THEOREM_I_FAIL",
                                       frozenset({+1})))
        for kind in DECIDE_KINDS[n]:
            z = gen("from_graph", n, seed=rng.integers(1 << 30), edges=forbidden_edges(n, kind))
            reqs.append(decide_request(f"not_well_split_{kind}/n{n}", z, "NOT_WELL_SPLIT"))
        if n == 4:
            z = gen("untranslatable4", seed=rng.integers(1 << 30))
            require(inertia(1.0 / z)[:2] == (2, 2), "untranslatable4 text has the wrong inertia")
            reqs.append(decide_request("untranslatable4/n4", z, "THEOREM_F_FAIL", frozenset()))
    warm = [r for r in reqs if r.n == min(sizes)]
    return Corpus("decide", reqs, warm, max(sizes))


# --- translate -----------------------------------------------------------------

def check_translation(label: str, z: np.ndarray, w, allowed: frozenset[int]) -> None:
    """Independent checks on a witness for the text with Gram `z`."""
    t = qtext.validate_text(z)
    rep = qtext.check_witness(t, w)
    require(rep.passed, f"{label}: check_witness failed: {rep}")
    emb = qtext.embed_text(t)
    if len(w.tablet) == emb.dim + 1:
        emb = qtext.embed_text(t, pad_extra_dim=True)
    y = np.asarray(w.output_gram, dtype=complex)
    r1 = witness_r1(z, np.asarray(emb.vectors), w.tablet, w.Q, y)
    require(r1 <= R1_TOL, f"{label}: recomputed r1 = {r1:.3e}")
    require(w.unitary is not None, f"{label}: witness has no unitary")
    u = np.asarray(w.unitary, dtype=complex)
    require(u.shape == (emb.dim ** 2, emb.dim ** 2), f"{label}: unitary has shape {u.shape}")
    defect = unitarity_defect(u)
    require(defect <= UNITARITY_TOL, f"{label}: |U^H U - I| = {defect:.3e}")
    check_output_gram(y)
    require(-1.0 <= w.Q <= 1.0, f"{label}: Q = {w.Q} outside [-1, 1]")
    require(sign_of(w.Q) in allowed, f"{label}: sign of Q = {w.Q} not in {set(allowed)}")


def translate_request(label, z, allowed, kept_failure=None) -> Request:
    def run():
        t = qtext.validate_text(z)
        w = qtext.translate(t)
        return w, qtext.check_witness(t, w)

    def check(out):
        w, rep = out
        require(rep.passed, f"{label}: in-request check_witness failed")
        check_translation(label, z, w, allowed)

    return Request(label, z.shape[0], run, check, kept_failure=kept_failure)


def symmetric_core(a: float, z02: float) -> np.ndarray:
    return np.array([[1.0, a, z02], [a, 1.0, a], [z02, a, 1.0]], dtype=complex)


def with_pendant(core: np.ndarray, anchor: int, overlap: float) -> np.ndarray:
    k = core.shape[0]
    z = np.eye(k + 1, dtype=complex)
    z[:k, :k] = core
    z[anchor, k] = z[k, anchor] = overlap
    return z


# Symmetric 3-cores (z01 = z12 = a, small z02): their exceptional eigenvector
# of 1./z has an exact zero entry.  Alone they take the Nelder-Mead route;
# with one pendant `translate` raises SearchBudgetExhausted although the
# decision is OK_MIXED.  Fixed inputs, independent of the seed.
NELDER_MEAD_CORES = ((0.4, 0.01), (0.4, 0.05))
KEPT_FAILURES = (((0.4, 0.01), 1, 0.2), ((0.4, 0.05), 1, 0.15))


def build_translate(rng, tiny: bool) -> Corpus:
    big = (4, 8) if tiny else (4, 8, 16, 24)
    reqs = []
    for n in big if tiny else (3, 4, 8, 16, 24):
        reqs.append(translate_request(f"clone/n{n}", classical(rng, n), frozenset({0})))
    for n in big:
        for positive, tag in ((True, "central+"), (False, "central-")):
            z = uniform_z(rng, n, positive)
            reqs.append(translate_request(f"{tag}/n{n}", gen("uniform", n, z=z),
                                          uniform_signs(z)))
    for n in (3, 4) if tiny else (3, 3, 3, 4, 4, 4):
        z = first_seed(rng, lambda s, n=n: gen("random_efficient", n, seed=s),
                       lambda z: bool(core_signs(z)))
        reqs.append(translate_request(f"eigen/n{n}", z, core_signs(z)))
    for a, z02 in NELDER_MEAD_CORES[:1] if tiny else NELDER_MEAD_CORES:
        z = symmetric_core(a, z02)
        reqs.append(translate_request(f"search/a{a}_z{z02}", z, core_signs(z)))
    for n in (8,) if tiny else (8, 16, 24):
        g = qtext.make_graph(n, well_split_edges(n, max(3, n // 2), 1))
        z = np.array(qtext.realize_graph(g).text.gram)
        reqs.append(translate_request(f"mixed_realized/n{n}", z, frozenset({+1})))
    for n in (6,) if tiny else (6, 10):
        z = first_seed(
            rng, lambda s, n=n: gen("from_graph", n, seed=s, edges=well_split_edges(n, 3)),
            lambda z: +1 in core_signs(z[:3, :3]))
        reqs.append(translate_request(f"mixed_random/n{n}", z, frozenset({+1})))
    for n, k in ((8, 5),) if tiny else ((8, 5), (24, 16)):
        zc = uniform_z(rng, k, positive=bool(rng.integers(2)))
        idx = sorted(rng.permutation(n)[:k])
        z = embed_block(n, idx, gen("uniform", k, z=zc))
        reqs.append(translate_request(f"isolated_uniform/n{n}", z, uniform_signs(zc)))
    core = first_seed(rng, lambda s: gen("random_efficient", 3, seed=s),
                      lambda z: bool(core_signs(z)))
    idx = sorted(rng.permutation(6)[:3])
    reqs.append(translate_request("isolated_random/n6", embed_block(6, idx, core),
                                  core_signs(core)))
    for (a, z02), anchor, p in KEPT_FAILURES[:1] if tiny else KEPT_FAILURES:
        z = with_pendant(symmetric_core(a, z02), anchor, p)
        require(+1 in core_signs(z[:3, :3]), "kept-failure core must admit Q > 0")
        reqs.append(translate_request(f"kept_failure/a{a}_z{z02}", z, frozenset({+1}),
                                      kept_failure=qtext.synth.SearchBudgetExhausted))
    warm = [r for r in reqs if r.n <= 4]
    return Corpus("translate", reqs, warm, max(big))


# --- oracle ----------------------------------------------------------------------

def oracle_request(label, z, feasible: bool, samples: int) -> Request:
    def run():
        return qtext.oracle_feasible(qtext.validate_text(z), samples=samples,
                                     seed=ORACLE_SEED)

    def check(rep):
        if feasible:
            require(rep.found, f"{label}: oracle missed a classical text")
            rep2 = qtext.check_witness(qtext.validate_text(z), rep.witness)
            require(rep2.passed, f"{label}: oracle witness fails check_witness")
        else:
            require(not rep.found, f"{label}: oracle accepted a text the theory refuses")
            require(rep.samples == samples, f"{label}: used {rep.samples} of {samples} samples")

    return Request(label, z.shape[0], run, check)


def build_oracle(rng, tiny: bool) -> Corpus:
    samples = 2000 if tiny else ORACLE_SAMPLES
    refuse = lambda z: not core_signs(z)
    reqs = []
    z = gen("untranslatable4", seed=rng.integers(1 << 30))
    reqs.append(oracle_request("untranslatable4/n4", z, False, samples))
    z = gen("from_graph", 4, seed=rng.integers(1 << 30), edges=forbidden_edges(4, "TwoK2"))
    reqs.append(oracle_request("not_well_split_TwoK2/n4", z, False, samples))
    for n in (5, 6) if tiny else (5, 6, 7, 8, 8):
        z = first_seed(rng, lambda s, n=n: gen("random_efficient", n, seed=s), refuse)
        reqs.append(oracle_request(f"random/n{n}", z, False, samples))
    for n in (6,) if tiny else (6, 8):
        z = first_seed(
            rng, lambda s, n=n: gen("from_graph", n, seed=s, edges=well_split_edges(n, 3)),
            lambda z: +1 not in core_signs(z[:3, :3]))
        reqs.append(oracle_request(f"core_sign/n{n}", z, False, samples))
    if not tiny:
        z = gen("from_graph", 8, seed=rng.integers(1 << 30), edges=forbidden_edges(8, "C4"))
        reqs.append(oracle_request("not_well_split_C4/n8", z, False, samples))
    for n in (4,) if tiny else (4, 6, 8):
        reqs.append(oracle_request(f"classical/n{n}", classical(rng, n), True, samples))
    warm = [r for r in reqs if r.n == 4]
    return Corpus("oracle", reqs, warm, max(r.n for r in reqs))


# --- cli -------------------------------------------------------------------------

def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def gram_json(z: np.ndarray) -> dict:
    return {"n": int(z.shape[0]),
            "gram": [[[float(v.real), float(v.imag)] for v in row] for row in z]}


def gram_from_file(path: str) -> np.ndarray:
    return np.array([[complex(p[0], p[1]) for p in row] for row in read_json(path)["gram"]])


class CliRunner:
    """Runs `python -m qtext.cli` one call at a time in a work directory.

    With a tracer attached (`traced` set) each call instead runs
    cli_child.py, which wraps the package and writes its spans to a file.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.traced = False
        self.calls = []      # (subcommand, request id, spawn time, trace file) of traced calls
        self.request_id = 0

    def __call__(self, args: list[str]) -> int:
        env = dict(os.environ)
        here = os.path.dirname(os.path.abspath(__file__))
        if self.traced:
            out = os.path.join(self.workdir, f"trace-{self.request_id}.json")
            env["BENCH_TRACE_OUT"] = out
            env["BENCH_REQUEST"] = str(self.request_id)
            cmd = [sys.executable, os.path.join(here, "cli_child.py")] + args
        else:
            cmd = [sys.executable, "-m", "qtext.cli"] + args
        spawn = time.monotonic()
        env["BENCH_SPAWN_T"] = repr(spawn)
        proc = subprocess.run(cmd, cwd=self.workdir, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
        if self.traced:
            self.calls.append((args[0], self.request_id, spawn, out))
        self.request_id += 1
        if proc.returncode not in (0, 1):
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode


def cli_request(runner: CliRunner, label: str, n: int, args: list[str],
                expect_code: int, check=None) -> Request:
    def run():
        return runner(args)

    def full_check(code):
        require(code == expect_code, f"{label}: exit code {code}, expected {expect_code}")
        if check is not None:
            check()

    return Request(label, n, run, full_check, subcommand=args[0])


def build_cli(rng, tiny: bool, workdir: str) -> Corpus:
    os.makedirs(workdir, exist_ok=True)
    p = lambda name: os.path.join(workdir, name)
    runner = CliRunner(workdir)
    big = 4 if tiny else 16
    mid = 4 if tiny else 12
    za = uniform_z(rng, big, positive=True)
    write_json(p("A.json"), gram_json(gen("uniform", big, z=za)))
    zu = gen("untranslatable4", seed=rng.integers(1 << 30))
    write_json(p("U4.json"), gram_json(zu))
    ws_edges = well_split_edges(big, max(3, big // 2), 1)
    write_json(p("Gws.json"), {"n": big, "edges": [list(e) for e in ws_edges]})
    write_json(p("small.json"), gram_json(gen("uniform", 3, z=0.5)))
    zm = uniform_z(rng, mid, positive=False)
    gen_seed = int(rng.integers(1 << 20))

    def check_gen():
        z = gram_from_file(p("T.json"))
        expect = np.full((mid, mid), zm, dtype=complex)
        np.fill_diagonal(expect, 1.0)
        require(np.array_equal(z, expect), "gen: written Gram is not the uniform text")

    def check_validate(report, text, n):
        def check():
            d = read_json(p(report))
            require(d["valid"] and d["n"] == n and d["uniform"] and d["real"]
                    and d["fully_quantum"] and not d["classical"], f"validate: flags {d}")
            require(d["efficient"] == is_efficient(gram_from_file(p(text))),
                    "validate: efficiency flag")
        return check

    def check_graph():
        d = read_json(p("G.json"))
        got = {tuple(e) for e in d["edges"]}
        require(d["n"] == mid and got == edges_of(gram_from_file(p("T.json"))),
                "graph: edges differ from the overlap graph")

    def check_analyze():
        d = read_json(p("AN.json"))
        require(d["class"] == "WellSplit" and d["shape"]["n2"] == mid,
                f"analyze: complete graph reported as {d['class']}")

    def check_realize():
        z = gram_from_file(p("R1.json"))
        require(edges_of(z) == set(ws_edges), "realize: text has the wrong overlap graph")
        w = qtext.io.load_witness(p("RW1.json"))
        check_translation("realize", z, w, frozenset({+1}))

    def check_classify_refused():
        d = read_json(p("CU.json"))
        require(not core_signs(zu) and d["reason"] == "THEOREM_F_FAIL",
                f"classify: untranslatable4 gave {d['reason']}")

    def check_classify():
        d = read_json(p("C.json"))
        require(d["reason"] == "OK_FULLY_QUANTUM"
                and set(d["sign_constraint"]) == set(uniform_signs(zm)),
                f"classify: uniform text gave {d['reason']} {d['sign_constraint']}")

    def check_twins(*pairs):
        def check():
            for first, second in pairs:
                with open(p(first), "rb") as f1, open(p(second), "rb") as f2:
                    require(f1.read() == f2.read(),
                            f"repeated call wrote different bytes to {first}, {second}")
        return check

    def check_verify(name):
        def check():
            d = read_json(p(name))
            require(d["passed"] and d["r1"] <= R1_TOL and d["unitarity"] <= UNITARITY_TOL,
                    f"verify: {d}")
        return check

    reqs = [
        cli_request(runner, f"gen/n{mid}", mid,
                    ["gen", "--mode", "uniform", "--n", str(mid), "--z", repr(zm),
                     "--seed", str(gen_seed), "-o", "T.json"], 0, check_gen),
        cli_request(runner, f"validate/n{mid}", mid,
                    ["validate", "-i", "T.json", "-o", "V.json"], 0,
                    check_validate("V.json", "T.json", mid)),
        cli_request(runner, f"graph/n{mid}", mid,
                    ["graph", "-i", "T.json", "-o", "G.json"], 0, check_graph),
        cli_request(runner, f"analyze/n{mid}", mid,
                    ["analyze", "-g", "G.json", "-o", "AN.json"], 0, check_analyze),
        cli_request(runner, f"classify/n{mid}", mid,
                    ["classify", "-i", "T.json", "-o", "C.json"], 0, check_classify),
        cli_request(runner, "classify_refused/n4", 4,
                    ["classify", "-i", "U4.json", "-o", "CU.json"], 1, check_classify_refused),
        cli_request(runner, f"realize/n{big}", big,
                    ["realize", "-g", "Gws.json", "-o", "R1.json", "-w", "RW1.json"], 0,
                    check_realize),
        cli_request(runner, f"realize_again/n{big}", big,
                    ["realize", "-g", "Gws.json", "-o", "R2.json", "-w", "RW2.json"], 0,
                    check_twins(("R1.json", "R2.json"), ("RW1.json", "RW2.json"))),
        cli_request(runner, f"translate/n{big}", big,
                    ["translate", "-i", "A.json", "-o", "W1.json"], 0),
        cli_request(runner, f"translate_again/n{big}", big,
                    ["translate", "-i", "A.json", "-o", "W2.json"], 0,
                    check_twins(("W1.json", "W2.json"))),
        # W2 has W1's bytes, so verifying W1 verifies both.
        cli_request(runner, f"verify/n{big}", big,
                    ["verify", "-i", "A.json", "-w", "W1.json", "-o", "VW.json"], 0,
                    check_verify("VW.json")),
    ]
    warm = [cli_request(runner, "warmup", 3, ["validate", "-i", "small.json", "-o", "-"], 0)]
    return Corpus("cli", reqs, warm, big, runner)


def build(workload: str, seed: int, tiny: bool, workdir: str) -> Corpus:
    rng = np.random.default_rng([int(seed), WORKLOAD_TAGS[workload]])
    if workload == "decide":
        return build_decide(rng, tiny)
    if workload == "translate":
        return build_translate(rng, tiny)
    if workload == "oracle":
        return build_oracle(rng, tiny)
    return build_cli(rng, tiny, workdir)


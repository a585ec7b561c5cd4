"""Benchmark of qtext: four closed-loop workloads, one request at a time.

  run.py --workload W --seed N --seconds S --trace 0|1   one run; last stdout
                                                        line is the result
  run.py --smoke                    every workload's checks on a tiny corpus
  run.py --sweep DIR [--seeds 1-10] [--workloads a,b] [--seconds S] [--trace 0|1]
                                    one run per workload and seed, stdout
                                    of each kept as DIR/<workload>-<seed>.out
  run.py --compare DIR [DIR2]       medians, quartiles and spreads of a set
                                    of runs, and whether two sets agree

Workloads: decide, translate, oracle, cli (see README.md).  With --trace 0
the result holds the end-to-end metrics, with --trace 1 the per-layer ones.
Run from the repository root; the package is taken from src/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "translate", "oracle", "cli")
# Set-up is timed in this many fresh interpreters, after one untimed start
# that fills the file cache; the median is reported.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MEASURE_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, role: str,
                 timeout: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--role", role]
    spawn = time.monotonic()
    # A process group of its own, so that a timeout also stops the worker's cli children.
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args
                            + ["--spawn", repr(spawn)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {role} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def single_run(workload: str, seed: int, seconds: float, trace: int) -> int:
    spawn_worker(workload, seed, seconds, trace, "setup", SETUP_TIMEOUT_S)
    samples = [spawn_worker(workload, seed, seconds, trace, "setup", SETUP_TIMEOUT_S)["sample"]
               for _ in range(SETUP_SAMPLES - 1)]
    result = spawn_worker(workload, seed, seconds, trace, "measure", MEASURE_TIMEOUT_S)
    samples.append(result["sample"])
    metrics = result["metrics"]
    med = lambda key: statistics.median(s[key] for s in samples)
    if trace:
        metrics.setdefault("cli.python_start_ms", med("start_s") * 1e3)
        metrics.setdefault("cli.import_ms", med("import_s") * 1e3)
    else:
        metrics["setup_s"] = med("scaled_setup_s")
    units = metric_units()
    info = dict(result["info"], setup_samples=samples)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if result["correct"] else 1


def metric_units() -> dict:
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        start = time.monotonic()
        result = spawn_worker(workload, 1, 0, 0, "smoke", MEASURE_TIMEOUT_S)
        ok &= bool(result["correct"])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} ({time.monotonic() - start:.1f} s)")
        for err in result["info"]["errors"]:
            print("  " + err.splitlines()[0])
    return 0 if ok else 1


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def sweep(out_dir: str, seeds: list[int], workloads: list[str], seconds: float,
          trace: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    for workload in workloads:
        for seed in seeds:
            path = Path(out_dir) / f"{workload}-{seed}.out"
            with open(path, "wb") as fh:
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                    cwd=ROOT, stdout=fh, timeout=300)
            status |= proc.returncode
            print(f"{path}: exit {proc.returncode}", flush=True)
    return status


def read_set(directory: str) -> dict:
    """{workload: [(info, result)]} from the .out files of one set."""
    runs = {}
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2:
            continue
        info = json.loads(lines[-2])["info"]
        runs.setdefault(info["workload"], []).append((info, json.loads(lines[-1])))
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def compare(dirs: list[str]) -> int:
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    sets = [read_set(d) for d in dirs]
    ok = True
    for workload in WORKLOADS:
        if not any(workload in s for s in sets):
            continue
        print(f"== {workload}")
        shares = []
        for s in sets:
            runs = s.get(workload, [])
            failed = {(r["failed"], r["attempted"]) for _, r in runs}
            shares.append({f / a for f, a in failed})
            print(f"   {len(runs)} runs, seeds {sorted(i['seed'] for i, _ in runs)}, "
                  f"failed/attempted {sorted(failed)}, "
                  f"all correct: {all(r['correct'] for _, r in runs)}")
            ok &= all(r["correct"] for _, r in runs)
        if len(sets) == 2 or any(len(s) > 1 for s in shares):
            same = len(set().union(*shares)) == 1
            ok &= same
            print(f"   failed share identical across runs and sets: {same}")
        names = sorted({n for s in sets for _, r in s.get(workload, []) for n in r["metrics"]})
        for name in names:
            cols = []
            stats = []
            for s in sets:
                values = [r["metrics"][name]["value"] for _, r in s.get(workload, [])
                          if name in r["metrics"]]
                st = summary(values)
                stats.append((st, values))
                cols.append(f"median {st[0]:12.4f}  q1 {st[1]:12.4f}  q3 {st[2]:12.4f}  "
                            f"spread {st[3]:6.3f}")
            verdict = ""
            if name in bounds:
                b = bounds[name]
                bound = b["bound"]
                steady = all(st[3] <= bound for st, _ in stats) or name == "setup_s"
                verdict = f"bound {bound}: spread {'ok' if steady else 'TOO WIDE'}"
                ok &= steady
                if len(stats) == 2:
                    m0, m1 = stats[0][0][0], stats[1][0][0]
                    worse = (m1 - m0) / m0 if b["better"] == "lower" else (m0 - m1) / m0
                    agree = worse <= bound
                    ok &= agree
                    verdict += f", second set {worse:+.3f} worse: {'agree' if agree else 'DISAGREE'}"
            elif name in layer and layer[name]["unit"] == "count":
                exact = len({v for _, values in stats for v in values}) == 1
                verdict = "count repeats exactly" if exact else "count VARIES"
            print(f"   {name}")
            for c in cols:
                print(f"      {c}")
            if verdict:
                print(f"      {verdict}")
    print("ALL AGREE" if ok else "NOT AGREED")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--sweep", metavar="DIR")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--compare", nargs="+", metavar="DIR")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qtext" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qtext package under {ROOT / 'src'}\n")
        return 2
    try:
        if args.compare:
            return compare(args.compare)
        if args.smoke:
            return smoke()
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        if args.sweep:
            return sweep(args.sweep, parse_seeds(args.seeds), args.workloads.split(","),
                         seconds, args.trace)
        if not args.workload:
            p.error("one of --workload, --smoke, --sweep or --compare is required")
        return single_run(args.workload, args.seed, seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

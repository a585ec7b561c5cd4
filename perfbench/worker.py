"""The workload process: set up, replay whole passes of the corpus, check.

Started by run.py, once per set-up sample and once to measure.  BLAS and
OpenMP are pinned to one thread before numpy is imported; cli children
inherit the setting.  The last line of stdout is one JSON object.
"""

import time

ENTER = time.monotonic()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

from tracing import Tracer, aggregate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=["decide", "translate", "oracle", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--role", choices=["setup", "measure", "smoke"], required=True)
    p.add_argument("--spawn", type=float, required=True,
                   help="the parent's time.monotonic() just before starting this process")
    return p.parse_args(argv)


# A shared VM (the reference one: 2 vCPUs, other tenants on its cores)
# changes speed by up to half again over seconds to tens of seconds, which
# wall-clock medians of a 15 s run cannot average out.  A fixed calibration kernel is
# therefore timed after every request, and each request time is scaled by
# CALIBRATION_REF_S / (median kernel time over the five nearest requests of
# its pass); a set-up time is scaled by the median of seven kernel times
# taken right after it.  Times are reported at the speed at which the
# kernel takes CALIBRATION_REF_S; raw wall-clock figures are kept in the
# info line.
CALIBRATION_REF_S = 0.003


class Calibration:
    """Fixed mixed work like the program's own: a loop over 4-subsets with
    set lookups (as in graph recognition), small batched eigvalsh and a
    complex matrix product."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((64, 8, 8))
        self.small = small + small.transpose(0, 2, 1)
        self.dense = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self.eigvalsh = np.linalg.eigvalsh
        self.adj = [frozenset(j for j in range(14) if j != i and (i * j) % 3 != 1)
                    for i in range(14)]
        self.pairs = list(itertools.combinations(range(4), 2))

    def __call__(self) -> float:
        start = time.perf_counter()
        masks = 0
        for quad in itertools.combinations(range(14), 4):
            mask = 0
            for k, (a, b) in enumerate(self.pairs):
                if quad[b] in self.adj[quad[a]]:
                    mask |= 1 << k
            masks += mask
        for _ in range(3):
            self.eigvalsh(self.small)
        self.dense @ self.dense
        return time.perf_counter() - start


class Outcome:
    """Per-request timings and the failures seen in one run."""

    def __init__(self):
        self.passes = []       # per pass: list of (request, seconds, completed)
        self.traced = []       # per pass: whether it ran traced
        self.calibration = []  # per pass: kernel times after each request
        self.failed = 0
        self.errors = []

    def scaled(self, k: int) -> list:
        """Pass k with each time taken to the reference speed."""
        kernel = self.calibration[k]
        return [(req, t * CALIBRATION_REF_S / median(kernel[max(0, i - 2):i + 3]), ok)
                for i, (req, t, ok) in enumerate(self.passes[k])]

    def error(self, message: str) -> None:
        if not self.errors:
            sys.stderr.write(message + "\n")
        self.errors.append(message)


def execute(req, outcome: Outcome, timing: list | None, tracer=None,
            request_id=None) -> None:
    """Run one request, time it, then check its output outside the timing
    (and outside the trace)."""
    if tracer is not None:
        tracer.request = request_id
    start = time.perf_counter()
    try:
        out = req.run()
        completed = True
    except Exception as exc:  # every failure is counted; only kept ones are correct
        elapsed = time.perf_counter() - start
        completed = False
        outcome.failed += 1
        if req.kept_failure is None or not isinstance(exc, req.kept_failure):
            outcome.error(f"{req.label}: unexpected {type(exc).__name__}: {exc}\n"
                          + traceback.format_exc())
    else:
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.request = None
    if timing is not None:
        timing.append((req, elapsed, completed))
    if completed:
        try:
            req.check(out)
        except AssertionError as exc:
            outcome.error(f"check failed: {exc}")


def median(values):
    return statistics.median(values) if values else 0.0


def measure(corpus, seconds: float, tracer, outcome: Outcome, calibrate) -> None:
    """Whole passes until `seconds` have gone by.  Traced runs alternate an
    untraced and a traced pass and stop on a traced one."""
    for _ in range(3):
        calibrate()
    end = time.monotonic() + seconds
    while True:
        traced = tracer is not None and len(outcome.passes) % 2 == 1
        if traced:
            tracer.install()
        if corpus.runner is not None:
            corpus.runner.traced = traced
        timing = []
        kernel = []
        for i, req in enumerate(corpus.requests):
            execute(req, outcome, timing, tracer if traced else None,
                    len(outcome.passes) * len(corpus.requests) + i)
            kernel.append(calibrate())
        if traced:
            tracer.uninstall()
        outcome.passes.append(timing)
        outcome.calibration.append(kernel)
        outcome.traced.append(traced)
        if time.monotonic() >= end and (tracer is None or traced):
            break


def end_to_end(corpus, outcome: Outcome, scaled: bool = True) -> dict:
    """Request rate and latency medians over whole passes; with `scaled`
    at the reference speed, otherwise in wall-clock time."""
    rates = []
    done = []
    largest = []
    for k in range(len(outcome.passes)):
        timing = outcome.scaled(k) if scaled else outcome.passes[k]
        busy = sum(t for _, t, _ in timing)
        completed = [(r, t) for r, t, ok in timing if ok]
        rates.append(len(completed) / busy)
        done += [t for _, t in completed]
        largest += [t for r, t in completed if r.n == corpus.largest_n]
    who = resource.RUSAGE_CHILDREN if corpus.workload == "cli" else resource.RUSAGE_SELF
    return {
        "requests_per_s": median(rates),
        "latency_p50_ms": median(done) * 1e3,
        "largest_p50_ms": median(largest) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def label_ms(outcome: Outcome) -> dict:
    """Median time of each request over the passes, at the reference speed."""
    times = {}
    for k in range(len(outcome.passes)):
        for req, t, ok in outcome.scaled(k):
            if ok:
                times.setdefault(req.label, []).append(t * 1e3)
    return {label: median(ts) for label, ts in times.items()}


def cli_child_spans(runner, base: int):
    """Spans of the traced cli children, renumbered to unique ids from `base`."""
    spans, counters, starts, imports = [], {}, [], []
    for _, _, _, path in runner.calls:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        for sid, name, start, end, parent, req in d["spans"]:
            spans.append((base + sid, name, start, end,
                          None if parent is None else base + parent, req))
        base += 1 + max((s[0] for s in d["spans"]), default=0)
        for key, value in d["counters"].items():
            counters[key] = counters.get(key, 0) + value
        starts.append(d["start_s"])
        imports.append(d["import_s"])
    return spans, counters, starts, imports


def per_layer(corpus, outcome: Outcome, tracer, gen_ms: float) -> tuple[dict, list]:
    """Per-layer metrics of the traced passes, and all their spans (those of
    the cli children included)."""
    traced = [p for p, t in zip(outcome.passes, outcome.traced) if t]
    requests = sum(len(p) for p in traced)
    spans, counters = list(tracer.spans), Counter(tracer.counters)
    if corpus.runner is not None:
        first_id = 1 + max((s[0] for s in spans), default=0)
        child_spans, child_counters, starts, imports = cli_child_spans(corpus.runner, first_id)
        spans += child_spans
        counters.update(child_counters)
    out = aggregate(spans, counters, requests)
    out["generators.gen_ms"] = gen_ms
    busy = [sum(t for _, t, _ in outcome.scaled(k)) for k in range(len(outcome.passes))]
    out["trace.overhead_pct"] = (
        median([b for b, t in zip(busy, outcome.traced) if t])
        / median([b for b, t in zip(busy, outcome.traced) if not t]) - 1.0) * 100.0
    calls = {}
    for p in traced:
        for req, t, _ in p:
            if req.subcommand is not None:
                calls.setdefault(req.subcommand, []).append(t * 1e3)
    for sub in ("gen", "validate", "graph", "analyze", "classify", "translate",
                "verify", "realize"):
        out[f"cli.call_ms.{sub}"] = median(calls.get(sub, []))
    if corpus.runner is not None:
        out["cli.python_start_ms"] = median(starts) * 1e3
        out["cli.import_ms"] = median(imports) * 1e3
    return out, spans


def write_spans(spans, workload: str, seed: int) -> None:
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "request"],
                   "spans": spans}, fh)


def os_threads() -> int:
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else -1


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.perf_counter()
    import numpy
    import qtext
    import scipy
    import_s = time.perf_counter() - start
    import workloads

    tracer = None
    if args.trace and args.role == "measure":
        tracer = Tracer()
        tracer.install()
        tracer.request = "setup"
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        corpus = workloads.build(args.workload, args.seed, args.role == "smoke", workdir)
        gen_ms = 0.0
        if tracer is not None:
            tracer.request = None
            gen_ms = sum((end - begin) / 1e6 for _, name, begin, end, parent, _ in tracer.spans
                         if name == "generators.gen_text" and parent is None)
            tracer.spans.clear()
            tracer.uninstall()
        outcome = Outcome()
        for req in corpus.warmup:
            execute(req, outcome, None)
        outcome.failed = 0
        ready = time.monotonic()
        calibrate = Calibration(numpy)
        kernel_s = median([calibrate() for _ in range(7)])
        sample = {"setup_s": ready - args.spawn, "start_s": ENTER - args.spawn,
                  "import_s": import_s, "kernel_s": kernel_s,
                  "scaled_setup_s": (ready - args.spawn) * CALIBRATION_REF_S / kernel_s}
        if args.role == "setup":
            print(json.dumps({"sample": sample, "correct": not outcome.errors}))
            return 0 if not outcome.errors else 1
        if args.role == "smoke":
            timing = []
            for req in corpus.requests:
                execute(req, outcome, timing)
            outcome.passes.append(timing)
            outcome.calibration.append([CALIBRATION_REF_S] * len(timing))
        else:
            measure(corpus, args.seconds, tracer, outcome, calibrate)
        attempted = sum(len(p) for p in outcome.passes)
        if tracer is not None:
            metrics, spans = per_layer(corpus, outcome, tracer, gen_ms)
            write_spans(spans, args.workload, args.seed)
        else:
            metrics = end_to_end(corpus, outcome)
            raw = end_to_end(corpus, outcome, scaled=False)
        info = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "passes": len(outcome.passes),
            "pass_busy_s": [sum(t for _, t, _ in p) for p in outcome.passes],
            "pass_kernel_ms": [median(c) * 1e3 for c in outcome.calibration],
            "requests_per_pass": len(corpus.requests),
            "label_ms": label_ms(outcome),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "qtext": qtext.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "os_threads": os_threads(),
            "errors": outcome.errors[:5],
        }
        if tracer is None:
            info["wall_clock_metrics"] = raw
        print(json.dumps({"sample": sample, "info": info, "correct": not outcome.errors,
                          "attempted": attempted, "failed": outcome.failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing of qtext from outside the package.

`Tracer.install` wraps every public function of each qtext module (plus
the few internal attributes a per-layer metric needs) and rebinds the
wrapper under every name through which the package's modules reach the
function, so calls between modules are seen too.  Each call records a span
(id, name, start, end, parent id, request id); spans stay in memory until
the run ends.  Calls made while `request` is None (the benchmark's own
checks) are not recorded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import Counter

LAYERS = ("texts", "graphs", "classify", "translation", "synth", "generators", "io")

# Internal attributes wrapped besides the public functions: the mixed
# attachment chain, and the optimizer as the search in synth reaches it.
EXTRA = (("synth", "_mixed_witness"),)
OPTIMIZER = "synth.optimizer"


def _on_search(tracer, args, kwargs, result):
    tracer.counters["synth.search_evaluations"] += result.evaluations


def _on_oracle(tracer, args, kwargs, result):
    tracer.counters["generators.oracle_samples"] += result.samples


def _on_save_witness(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path not in (None, "-"):
        tracer.counters["io.witness_bytes"] += os.path.getsize(path)


HOOKS = {
    "synth.search_translation": _on_search,
    "generators.oracle_feasible": _on_oracle,
    "io.save_witness": _on_save_witness,
}


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start_ns, end_ns, parent id, request)
        self.counters = Counter()
        self.request = None
        self._stack = []
        self._next_id = 0
        self._patches = []       # (owner, attribute, original)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = self.request
            if request is None:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent, request))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("qtext")
        modules = {layer: importlib.import_module(f"qtext.{layer}") for layer in LAYERS}
        owners = [package, importlib.import_module("qtext.cli")] + list(modules.values())
        targets = []
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets.append((f"{layer}.{attr}", fn))
        targets += [(f"{layer}.{attr}", getattr(modules[layer], attr)) for layer, attr in EXTRA]
        for name, fn in targets:
            wrapper = self.wrap(name, fn)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, attr, wrapper)
        optimize = modules["synth"].scipy.optimize
        self._patch(optimize, "minimize", self.wrap(OPTIMIZER, optimize.minimize))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# --- aggregation ---------------------------------------------------------------

# Metrics of the form <layer>.<name>_ms: time spent in the function's own
# layer inside its outermost calls, i.e. its duration minus the parts spent
# in other layers' functions it called.
FUNCTION_MS = {
    "texts.validate_ms": "texts.validate_text",
    "texts.properties_ms": "texts.text_properties",
    "graphs.graph_of_text_ms": "graphs.graph_of_text",
    "graphs.recognize_ms": "graphs.recognize",
    "classify.signature_ms": "classify.hadamard_inverse_signature",
    "classify.decide_ms": "classify.decide_translatable",
    "translation.unitary_ms": "translation.synthesize_unitary",
    "translation.check_ms": "translation.check_witness",
}
# Construction routes of translate, as whole durations of their outermost
# calls.  A search that calls the optimizer counts as "search", one that
# ends on its deterministic eigenvector candidates as "eigen".
ROUTES = {
    "clone": "synth.clone_classical",
    "central": "synth.central_translate_uniform",
    "mixed": "synth._mixed_witness",
}
SEARCH = "synth.search_translation"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans, counters, requests: int) -> dict[str, float]:
    """Per-request layer metrics of one traced run.

    `requests` is the number of requests the spans belong to; times are
    reported in ms per request, counts per request.
    """
    spans = sorted(spans)
    counters = Counter(counters)
    dur = {}
    child_sum = Counter()
    parent_of = {}
    names = {}
    for sid, name, start, end, parent, _ in spans:
        dur[sid] = (end - start) / 1e6
        names[sid] = name
        parent_of[sid] = parent
        if parent is not None:
            child_sum[parent] += dur[sid]
    tracked = set(FUNCTION_MS.values()) | set(ROUTES.values()) | {SEARCH}
    outer = {}                       # span id -> {tracked name: outermost span id}
    fn_ms = Counter()
    route_ms = Counter()
    calls = Counter()
    layer_ms = Counter()
    searches_with_optimizer = set()
    for sid, name, *_ in spans:
        parent = parent_of[sid]
        owners = outer.get(parent, {}) if parent is not None else {}
        if name in tracked and name not in owners:
            owners = dict(owners)
            owners[name] = sid
            if name in ROUTES.values() or name == SEARCH:
                route_ms[name] += dur[sid]
        outer[sid] = owners
        calls[name] += 1
        self_ms = dur[sid] - child_sum[sid]
        layer = layer_of(name)
        layer_ms[layer] += self_ms
        for tracked_name in owners:
            if layer_of(tracked_name) == layer:
                fn_ms[tracked_name] += self_ms
        if name == OPTIMIZER and SEARCH in owners:
            searches_with_optimizer.add(owners[SEARCH])
    search_ms = sum(dur[s] for s in searches_with_optimizer)
    per = 1.0 / max(requests, 1)
    out = {metric: fn_ms[fn] * per for metric, fn in FUNCTION_MS.items()}
    for route, fn in ROUTES.items():
        out[f"synth.route_ms.{route}"] = route_ms[fn] * per
    out["synth.route_ms.eigen"] = (route_ms[SEARCH] - search_ms) * per
    out["synth.route_ms.search"] = search_ms * per
    out["texts.embed_calls"] = calls["texts.embed_text"] * per
    out["graphs.recognize_calls"] = calls["graphs.recognize"] * per
    out["synth.search_evaluations"] = counters["synth.search_evaluations"] * per
    out["synth.optimizer_calls"] = calls[OPTIMIZER] * per
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = layer_ms[layer] * per
    saves = calls["io.save_witness"]
    loads = calls["io.load_witness"]
    out["io.witness_kb"] = counters["io.witness_bytes"] / 1024.0 / saves if saves else 0.0
    out["io.witness_dump_ms"] = _total_ms(spans, dur, "io.save_witness") / saves if saves else 0.0
    out["io.witness_load_ms"] = _total_ms(spans, dur, "io.load_witness") / loads if loads else 0.0
    oracle_s = _total_ms(spans, dur, "generators.oracle_feasible") / 1e3
    out["generators.oracle_samples_per_s"] = (
        counters["generators.oracle_samples"] / oracle_s if oracle_s else 0.0)
    return out


def _total_ms(spans, dur, name: str) -> float:
    return sum(dur[s[0]] for s in spans if s[1] == name)

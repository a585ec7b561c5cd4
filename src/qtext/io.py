"""JSON serialization of texts, graphs, witnesses, decisions, and reports.

Complex numbers travel as [re, im] pairs: the dict builders hold each
complex array as a float array of shape `a.shape + (2,)`, which the writer
turns into JSON.  Writers emit sorted keys and a trailing newline so
identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .texts import Text, validate_text
from .graphs import SimpleGraph, make_graph
from .translation import TranslationWitness, q_from_Q
from .classify import Decision


def _complex_to_json(a) -> np.ndarray:
    """The float array of shape `a.shape + (2,)` holding every entry of `a`
    as its [re, im] pair; a real `a` is stacked with +0.0, not made complex."""
    a = np.asarray(a)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    return np.stack([a.real, a.imag], -1)


def _complex_from_json(pairs, ndim: int) -> np.ndarray:
    """Inverse of `_complex_to_json` for an array of `ndim` dimensions."""
    a = np.asarray(pairs)
    if a.dtype.kind not in "iuf" or a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise ValueError(f"expected a {ndim}-d array of [re, im] number pairs")
    # np.asarray reads a JSON boolean among numbers as 0 or 1
    numbers = pairs
    for _ in range(ndim):
        numbers = chain.from_iterable(numbers)
    if bool in map(type, numbers):
        raise ValueError("a JSON boolean is not a number")
    out = np.empty(a.shape[:-1], dtype=complex)
    out.real = a[..., 0]
    out.imag = a[..., 1]
    return out


def text_to_dict(t: Text) -> dict:
    return {"n": t.n, "gram": _complex_to_json(t.gram)}


def _checked(x, types: tuple, what: str):
    """`x` if its type is one of `types` (a JSON boolean is no int), else
    ValueError."""
    if type(x) not in types:
        raise ValueError(f"{what} must be {'/'.join(t.__name__ for t in types)}, "
                         f"got {x!r}")
    return x


def _required(d: dict, key: str):
    """`d[key]`, or ValueError naming the key when the object lacks it."""
    if key not in d:
        raise ValueError(f"the JSON object has no {key!r} key")
    return d[key]


def text_from_dict(d: dict) -> Text:
    t = validate_text(_complex_from_json(_required(d, "gram"), 2))
    if "n" in d and _checked(d["n"], (int,), "n") != t.n:
        raise ValueError(f"declared n = {d['n']} but gram is {t.n} x {t.n}")
    return t


def graph_to_dict(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": sorted([list(e) for e in g.edges])}


def graph_from_dict(d: dict) -> SimpleGraph:
    edges = [[_checked(v, (int,), "an edge label") for v in _checked(e, (list,), "edge")]
             for e in _checked(_required(d, "edges"), (list,), "edges")]
    return make_graph(_checked(_required(d, "n"), (int,), "n"), edges)


def witness_to_dict(w: TranslationWitness) -> dict:
    return {
        "Q": float(w.Q),
        "q": [float(complex(w.q).real), float(complex(w.q).imag)],
        "tablet": _complex_to_json(w.tablet),
        "embedding_dim": int(w.embedding_dim),
        "output_gram": _complex_to_json(w.output_gram),
        "unitary": None if w.unitary is None else _complex_to_json(w.unitary),
        "residuals": {
            "eq4": None if w.residuals.get("eq4") is None else float(w.residuals["eq4"]),
            "eq2": None if w.residuals.get("eq2") is None else float(w.residuals["eq2"]),
        },
    }


def witness_from_dict(d: dict) -> TranslationWitness:
    tablet = _complex_from_json(_required(d, "tablet"), 1)
    if len(tablet) != _checked(_required(d, "embedding_dim"), (int,), "embedding_dim"):
        raise ValueError("embedding_dim does not match the tablet length")
    Q = float(_checked(_required(d, "Q"), (int, float), "Q"))
    q = q_from_Q(Q) if d.get("q") is None else complex(_complex_from_json(d["q"], 0))
    output = _complex_from_json(_required(d, "output_gram"), 2)
    unitary = None if d.get("unitary") is None else _complex_from_json(d["unitary"], 2)
    stored = _checked(d.get("residuals", {}), (dict,), "residuals")
    residuals = {"eq4": stored.get("eq4"), "eq2": stored.get("eq2")}
    return TranslationWitness(Q=Q, q=q, tablet=tablet, output_gram=output,
                              unitary=unitary, residuals=residuals)


def decision_to_dict(d: Decision) -> dict:
    sig = None
    if d.signature is not None:
        sig = {
            "n_pos": d.signature.n_pos,
            "n_neg": d.signature.n_neg,
            "n_zero": d.signature.n_zero,
            "admissible_signs": sorted(d.signature.admissible_signs),
            "det_nonzero": d.signature.det_nonzero,
        }
    decomp = None
    parts = d.decomposition
    if parts is not None:
        decomp = {
            "classical_part": sorted([*parts.anchors, *parts.isolated]),
            "quantum_part": list(parts.core),
            "attachment": {str(k): v for k, v in parts.anchors.items()},
        }
    witness = None
    if d.forbidden_witness is not None:
        witness = {"kind": d.forbidden_witness.kind,
                   "vertices": list(d.forbidden_witness.vertices)}
    return {
        "translatable": d.translatable,
        "reason": d.reason,
        "signature": sig,
        "decomposition": decomp,
        "sign_constraint": None if d.sign_constraint is None else sorted(d.sign_constraint),
        "forbidden_witness": witness,
    }


def _encode(o, level: int) -> str:
    """`o` as `json.dumps(o, indent=2, sort_keys=True,
    default=np.ndarray.tolist)` writes it at nesting `level`.  A non-empty
    float64 array of finite entries is filled into one template of its
    shape; any other array is written as its `.tolist()`, and anything but
    a dict with string keys or a non-empty list is left to json itself."""
    if type(o) is dict and o and all(type(k) is str for k in o):
        return _bracket("{", [f"{encode_basestring_ascii(k)}: {_encode(v, level + 1)}"
                              for k, v in sorted(o.items())], "}", level)
    if type(o) is list and o:
        return _bracket("[", [_encode(x, level + 1) for x in o], "]", level)
    if type(o) is np.ndarray:
        if o.dtype != np.float64 or not o.size or not np.isfinite(o).all():
            return _encode(o.tolist(), level)
        template = "%s"
        for depth in reversed(range(o.ndim)):
            template = _bracket("[", [template] * o.shape[depth], "]", level + depth)
        return template % tuple(map(repr, o.ravel().tolist()))
    # json escapes every newline inside a string, so each raw newline starts
    # a line that moves in by `level`
    return json.dumps(o, indent=2, sort_keys=True,
                      default=np.ndarray.tolist).replace("\n", "\n" + "  " * level)


def _bracket(open_: str, items: list, close: str, level: int) -> str:
    """`items` between brackets, one per line, indented for `level`."""
    inner = "\n" + "  " * (level + 1)
    return open_ + inner + ("," + inner).join(items) + "\n" + "  " * level + close


def dump_json(obj, path: str | None) -> None:
    """Write `obj` as JSON to a path, or stdout for None or '-'.  The bytes
    are `json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)`
    plus a newline; the text is rendered before the file is opened, and the
    newline is written after it rather than appended to a copy of it."""
    text = _encode(obj, 0)
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")


def load_json(path: str) -> dict:
    """The JSON object in a file; ValueError for malformed JSON, JSON nested
    too deeply for the parser, or any other top-level value."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except RecursionError:
            raise ValueError("the JSON value is nested too deeply") from None
    return _checked(value, (dict,), "the top-level JSON value")


def load_text(path: str) -> Text:
    return text_from_dict(load_json(path))


def save_text(t: Text, path: str | None) -> None:
    dump_json(text_to_dict(t), path)


def load_graph(path: str) -> SimpleGraph:
    return graph_from_dict(load_json(path))


def save_graph(g: SimpleGraph, path: str | None) -> None:
    dump_json(graph_to_dict(g), path)


def load_witness(path: str) -> TranslationWitness:
    return witness_from_dict(load_json(path))


def save_witness(w: TranslationWitness, path: str | None) -> None:
    dump_json(witness_to_dict(w), path)

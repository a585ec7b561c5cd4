"""JSON serialization of texts, graphs, witnesses, decisions, and reports.

Complex numbers travel as [re, im] pairs.  Writers emit sorted keys and a
trailing newline so identical objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .texts import Text, validate_text
from .graphs import SimpleGraph, make_graph
from .translation import TranslationWitness, q_from_Q
from .classify import Decision


def _complex_to_json(a) -> list:
    """Nested lists shaped like `a` with every entry as an [re, im] pair."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], -1).tolist()


def _complex_from_json(pairs, ndim: int) -> np.ndarray:
    """Inverse of `_complex_to_json` for an array of `ndim` dimensions."""
    a = np.asarray(pairs)
    if a.dtype.kind not in "biuf" or a.ndim != ndim + 1 or a.shape[-1] != 2:
        raise ValueError(f"expected a {ndim}-d array of [re, im] number pairs")
    out = np.empty(a.shape[:-1], dtype=complex)
    out.real = a[..., 0]
    out.imag = a[..., 1]
    return out


def matrix_to_json(m: np.ndarray) -> list:
    return _complex_to_json(m)


def matrix_from_json(rows) -> np.ndarray:
    return _complex_from_json(rows, 2)


def vector_to_json(v: np.ndarray) -> list:
    return _complex_to_json(v)


def vector_from_json(pairs) -> np.ndarray:
    return _complex_from_json(pairs, 1)


def text_to_dict(t: Text) -> dict:
    return {"n": t.n, "gram": matrix_to_json(t.gram)}


def text_from_dict(d: dict) -> Text:
    t = validate_text(matrix_from_json(d["gram"]))
    if "n" in d and int(d["n"]) != t.n:
        raise ValueError(f"declared n = {d['n']} but gram is {t.n} x {t.n}")
    return t


def graph_to_dict(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": sorted([list(e) for e in g.edges])}


def graph_from_dict(d: dict) -> SimpleGraph:
    return make_graph(int(d["n"]), [tuple(e) for e in d["edges"]])


def witness_to_dict(w: TranslationWitness) -> dict:
    return {
        "Q": float(w.Q),
        "q": [float(complex(w.q).real), float(complex(w.q).imag)],
        "tablet": vector_to_json(w.tablet),
        "embedding_dim": int(w.embedding_dim),
        "output_gram": matrix_to_json(w.output_gram),
        "unitary": None if w.unitary is None else matrix_to_json(w.unitary),
        "residuals": {
            "eq4": None if w.residuals.get("eq4") is None else float(w.residuals["eq4"]),
            "eq2": None if w.residuals.get("eq2") is None else float(w.residuals["eq2"]),
        },
    }


def witness_from_dict(d: dict) -> TranslationWitness:
    tablet = vector_from_json(d["tablet"])
    if len(tablet) != int(d["embedding_dim"]):
        raise ValueError("embedding_dim does not match the tablet length")
    Q = float(d["Q"])
    q = complex(d["q"][0], d["q"][1]) if d.get("q") is not None else q_from_Q(Q)
    output = matrix_from_json(d["output_gram"])
    unitary = None if d.get("unitary") is None else matrix_from_json(d["unitary"])
    residuals = {
        "eq4": d.get("residuals", {}).get("eq4"),
        "eq2": d.get("residuals", {}).get("eq2"),
    }
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
    if d.decomposition is not None:
        decomp = {
            "classical_part": sorted(d.decomposition.classical_part),
            "quantum_part": sorted(d.decomposition.quantum_part),
            "attachment": {str(k): v for k, v in sorted(d.decomposition.attachment.items())},
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


def dump_json(obj, path: str | None) -> None:
    """Write `obj` as JSON to a path, or stdout for None or '-'."""
    blob = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(blob)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(blob)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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

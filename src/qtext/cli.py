"""Command line interface.

Subcommands: validate, graph, analyze, classify, translate, realize,
verify, gen.  Exit codes: 0 success/translatable, 1 untranslatable,
2 invalid input, 3 verification failed, 4 construction failed (including
a forced sign of Q the classifier does not admit), 5 undecided (a valid
text whose spectral test sits on the zero band).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as qio
from .texts import TextError, text_properties
from .graphs import GraphClass, GraphError, graph_of_text, read_well_split, recognize
from .classify import (
    BorderlineSignature,
    decide_translatable,
    decide_zero_translatable,
)
from .translation import TranslationError, check_witness
from .synth import (
    SynthError,
    Untranslatable,
    realize_graph,
    translate,
)
from .generators import GenSpec, InfeasibleSpec, gen_text

EXIT_OK = 0
EXIT_UNTRANSLATABLE = 1
EXIT_INVALID = 2
EXIT_VERIFY_FAILED = 3
EXIT_CONSTRUCTION_FAILED = 4
EXIT_UNDECIDED = 5


def _fail(args, exc, code=EXIT_INVALID) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    if getattr(args, "json", False):
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {payload['error']}: {payload['message']}\n")
    return code


def _cmd_validate(args) -> int:
    try:
        t = qio.load_text(args.input)
    except (TextError, ValueError, OSError, KeyError) as exc:
        return _fail(args, exc)
    props = text_properties(t)
    qio.dump_json({
        "valid": True,
        "n": t.n,
        "classical": props.classical,
        "fully_quantum": props.fully_quantum,
        "efficient": props.efficient,
        "uniform": props.uniform,
        "real": props.real_text,
    }, args.output)
    return EXIT_OK


def _cmd_graph(args) -> int:
    try:
        t = qio.load_text(args.input)
    except (TextError, ValueError, OSError, KeyError) as exc:
        return _fail(args, exc)
    qio.save_graph(graph_of_text(t), args.output)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    try:
        g = qio.load_graph(args.graph)
        rec = recognize(g)
    except (GraphError, ValueError, OSError, KeyError) as exc:
        return _fail(args, exc)
    shape = None
    if rec.klass == GraphClass.WELL_SPLIT:
        parts = read_well_split(g, rec)
        # a well-split graph is connected iff it has no isolated vertex
        if not parts.isolated:
            s = parts.shape()
            shape = {"n2": s.n2, "ell": s.ell, "m": list(s.m),
                     "labels": {str(v): s.labels[v] for v in sorted(s.labels)}}
    report = {
        "class": rec.klass.value,
        "splitting": None if rec.splitting is None else {
            "v1": sorted(rec.splitting.v1), "v2": sorted(rec.splitting.v2)},
        "forbidden_witness": None if rec.witness is None else {
            "kind": rec.witness.kind, "vertices": list(rec.witness.vertices)},
        "shape": shape,
    }
    qio.dump_json(report, args.output)
    return EXIT_OK


def _cmd_classify(args) -> int:
    try:
        t = qio.load_text(args.input)
    except (TextError, ValueError, OSError, KeyError) as exc:
        return _fail(args, exc)
    try:
        decision = decide_zero_translatable(t) if args.q0 else decide_translatable(t)
    except BorderlineSignature as exc:
        return _fail(args, exc, code=EXIT_UNDECIDED)
    qio.dump_json(qio.decision_to_dict(decision), args.output)
    return EXIT_OK if decision.translatable else EXIT_UNTRANSLATABLE


def _cmd_translate(args) -> int:
    try:
        t = qio.load_text(args.input)
    except (TextError, ValueError, OSError, KeyError) as exc:
        return _fail(args, exc)
    sign = None
    if args.sign == "+":
        sign = +1
    elif args.sign == "-":
        sign = -1
    try:
        w = translate(t, force_sign=sign, q0=args.q0)
    except Untranslatable as exc:
        qio.dump_json(qio.decision_to_dict(exc.decision), args.output)
        return EXIT_UNTRANSLATABLE
    except BorderlineSignature as exc:
        return _fail(args, exc, code=EXIT_UNDECIDED)
    except (SynthError, TranslationError) as exc:
        return _fail(args, exc, code=EXIT_CONSTRUCTION_FAILED)
    qio.save_witness(w, args.output)
    return EXIT_OK


def _cmd_realize(args) -> int:
    try:
        g = qio.load_graph(args.graph)
    except (GraphError, ValueError, OSError, KeyError) as exc:
        return _fail(args, exc)
    try:
        result = realize_graph(g)
    except GraphError as exc:
        return _fail(args, exc, code=EXIT_UNTRANSLATABLE)
    except SynthError as exc:
        return _fail(args, exc, code=EXIT_CONSTRUCTION_FAILED)
    qio.save_text(result.text, args.output)
    if args.witness:
        qio.save_witness(result.witness, args.witness)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        t = qio.load_text(args.input)
        w = qio.load_witness(args.witness)
    except (TextError, ValueError, OSError, KeyError) as exc:
        return _fail(args, exc)
    try:
        report = check_witness(t, w)
    except (TranslationError, ValueError) as exc:
        # inconsistent witness data counts as a failed verification, not
        # malformed input
        return _fail(args, exc, code=EXIT_VERIFY_FAILED)
    qio.dump_json({
        "r1": report.r1,
        "r2_ok": report.r2_ok,
        "r2_error": report.r2_error,
        "r3": report.r3,
        "unitarity": report.unitarity,
        "passed": report.passed,
    }, args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_gen(args) -> int:
    graph = None
    if args.graph:
        try:
            graph = qio.load_graph(args.graph)
        except (GraphError, ValueError, OSError, KeyError) as exc:
            return _fail(args, exc)
    spec = GenSpec(mode=args.mode, n=args.n, seed=args.seed,
                   z=args.z, graph=graph)
    try:
        t = gen_text(spec)
    except (InfeasibleSpec, TextError) as exc:
        return _fail(args, exc)
    qio.save_text(t, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtext",
        description="Translatability analysis of state families given by Gram matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, inp=False, graph=False, witness=False, out=True):
        if inp:
            p.add_argument("--input", "-i", required=True, help="text JSON file")
        if graph:
            p.add_argument("--graph", "-g", required=True, help="graph JSON file")
        if witness:
            p.add_argument("--witness", "-w", required=True, help="witness JSON file")
        if out:
            p.add_argument("--output", "-o", default=None,
                           help="output file (default stdout)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable errors on stderr")

    p = sub.add_parser("validate", help="validate a text and report its properties")
    add_common(p, inp=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("graph", help="overlap graph of a text")
    add_common(p, inp=True)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("analyze", help="recognize a graph and report its shape")
    add_common(p, graph=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="decide translatability")
    add_common(p, inp=True)
    p.add_argument("--q0", action="store_true", help="decide for Q = 0 only")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("translate", help="construct and verify a witness")
    add_common(p, inp=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--q0", action="store_true", help="clone classical texts only")
    mode.add_argument("--sign", choices=["+", "-"], default=None,
                      help="force the sign of Q (exit 4 if it is not admissible)")
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("realize", help="build a text realizing a graph")
    p.add_argument("--graph", "-g", required=True, help="graph JSON file")
    p.add_argument("--output", "-o", default=None, help="text output file")
    p.add_argument("--witness", "-w", default=None, help="optional witness output")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("verify", help="check a witness against a text")
    add_common(p, inp=True, witness=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a text")
    add_common(p)
    p.add_argument("--mode", required=True,
                   choices=["random_efficient", "uniform", "from_graph",
                            "untranslatable4"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--graph", "-g", default=None, help="graph JSON for from_graph")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    np.set_printoptions(precision=12)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command line interface.

Subcommands: validate, graph, analyze, classify, translate, realize,
verify, gen.  Exit codes: 0 success/translatable, 1 untranslatable,
2 invalid input, 3 verification failed, 4 construction failed (including
a forced sign of Q the classifier does not admit), 5 undecided (a valid
text whose spectral test sits on the zero band).

Each subcommand declares, beside its parser, the files it reads (in load
order, with their loaders) and the exit code of each error its work can
raise.  `main` loads every declared input first, so any unreadable or
malformed input exits 2 before any work starts; it then runs the handler
on the loaded objects and maps a raised error through the subcommand's
table, first matching class first.  An output that cannot be written
(an `OSError` of the work) exits 2 as well; any other error propagates.
Every file is written by `io.dump_json`, the bytes of its `json.dumps`
reference and a newline, rendered before the file is opened.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

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
    if args.json:
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"error: {payload['error']}: {payload['message']}\n")
    return code


def _cmd_validate(args, t) -> int:
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


def _cmd_graph(args, t) -> int:
    qio.save_graph(graph_of_text(t), args.output)
    return EXIT_OK


def _cmd_analyze(args, g) -> int:
    rec = recognize(g)
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


def _cmd_classify(args, t) -> int:
    decision = decide_zero_translatable(t) if args.q0 else decide_translatable(t)
    qio.dump_json(qio.decision_to_dict(decision), args.output)
    return EXIT_OK if decision.translatable else EXIT_UNTRANSLATABLE


def _cmd_translate(args, t) -> int:
    sign = 0 if args.q0 else {"+": +1, "-": -1}.get(args.sign)
    try:
        w = translate(t, force_sign=sign)
    except Untranslatable as exc:
        # a refusal is a result: the decision is the output
        qio.dump_json(qio.decision_to_dict(exc.decision), args.output)
        return EXIT_UNTRANSLATABLE
    qio.save_witness(w, args.output)
    return EXIT_OK


def _cmd_realize(args, g) -> int:
    result = realize_graph(g)
    qio.save_text(result.text, args.output)
    if args.witness:
        qio.save_witness(result.witness, args.witness)
    return EXIT_OK


def _cmd_verify(args, t, w) -> int:
    report = check_witness(t, w)
    qio.dump_json(dataclasses.asdict(report), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def _cmd_gen(args, graph) -> int:
    spec = GenSpec(mode=args.mode, n=args.n, seed=args.seed, z=args.z, graph=graph)
    qio.save_text(gen_text(spec), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtext",
        description="Translatability analysis of state families given by Gram matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    def arg(*flags, load=None, **kwargs):
        """One argument; `load` makes it an input file that `main` loads."""
        return flags, kwargs, load

    # the loaders are looked up here, when `main` runs, so that a caller
    # who rebinds them in `qtext.io` (a tracer, say) is seen
    text = arg("--input", "-i", required=True, help="text JSON file", load=qio.load_text)
    graph = arg("--graph", "-g", required=True, help="graph JSON file",
                load=qio.load_graph)
    witness = arg("--witness", "-w", required=True, help="witness JSON file",
                  load=qio.load_witness)
    out = arg("--output", "-o", default=None, help="output file (default stdout)")
    json_errors = arg("--json", action="store_true",
                      help="machine-readable errors on stderr")

    def command(name, help, func, arguments, errors=()):
        """Subcommand `name` with its arguments in order.  `errors` holds
        (exception classes, exit code) pairs for the errors of `func`."""
        p = sub.add_parser(name, help=help)
        inputs = []
        for flags, kwargs, load in arguments:
            action = p.add_argument(*flags, **kwargs)
            if load:
                inputs.append((action, load))
        p.set_defaults(func=func, inputs=inputs, errors=errors)
        return p

    command("validate", "validate a text and report its properties", _cmd_validate,
            [text, out, json_errors])
    command("graph", "overlap graph of a text", _cmd_graph, [text, out, json_errors])
    command("analyze", "recognize a graph and report its shape", _cmd_analyze,
            [graph, out, json_errors], [(GraphError, EXIT_INVALID)])

    p = command("classify", "decide translatability", _cmd_classify,
                [text, out, json_errors], [(BorderlineSignature, EXIT_UNDECIDED)])
    p.add_argument("--q0", action="store_true", help="decide for Q = 0 only")

    p = command("translate", "construct and verify a witness", _cmd_translate,
                [text, out, json_errors],
                [(BorderlineSignature, EXIT_UNDECIDED),
                 ((SynthError, TranslationError), EXIT_CONSTRUCTION_FAILED)])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--q0", action="store_true", help="clone classical texts only")
    mode.add_argument("--sign", choices=["+", "-"], default=None,
                      help="force the sign of Q (exit 4 if it is not admissible)")

    command("realize", "build a text realizing a graph", _cmd_realize,
            [graph, arg("--output", "-o", default=None, help="text output file"),
             arg("--witness", "-w", default=None, help="optional witness output"),
             arg("--json", action="store_true")],
            [(GraphError, EXIT_UNTRANSLATABLE), (SynthError, EXIT_CONSTRUCTION_FAILED)])
    # inconsistent witness data counts as a failed verification, not
    # malformed input
    command("verify", "check a witness against a text", _cmd_verify,
            [text, witness, out, json_errors], [(ValueError, EXIT_VERIFY_FAILED)])
    command("gen", "generate a text", _cmd_gen,
            [out, json_errors,
             arg("--mode", required=True, choices=["random_efficient", "uniform",
                                                   "from_graph", "untranslatable4"]),
             arg("--n", type=int, default=3),
             arg("--seed", type=int, default=0),
             arg("--z", type=float, default=None),
             arg("--graph", "-g", default=None, help="graph JSON for from_graph",
                 load=qio.load_graph)],
            [((InfeasibleSpec, TextError), EXIT_INVALID)])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    loaded = []
    try:
        for action, load in args.inputs:
            path = getattr(args, action.dest)
            # an optional input left empty is not read
            loaded.append(load(path) if path or action.required else None)
    except (ValueError, OSError) as exc:
        return _fail(args, exc)
    try:
        return args.func(args, *loaded)
    except Exception as exc:
        # an output that cannot be written is invalid input as well
        for classes, code in (*args.errors, (OSError, EXIT_INVALID)):
            if isinstance(exc, classes):
                return _fail(args, exc, code)
        raise


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: exit codes, JSON output, and file pipelines."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtext
from qtext import io as qio
from qtext import validate_text
from qtext.cli import main
from tests.conftest import off_frame_stretch, uniform_gram


@pytest.fixture
def text_file(tmp_path):
    p = str(tmp_path / "text.json")
    qio.save_text(validate_text(uniform_gram(3, 0.5)), p)
    return p


@pytest.fixture
def classical_file(tmp_path):
    p = str(tmp_path / "id.json")
    qio.save_text(validate_text(np.eye(3)), p)
    return p


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_valid(self, capsys, text_file):
        code, out, _ = run(capsys, "validate", "-i", text_file, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["valid"] and d["fully_quantum"] and d["uniform"]

    def test_invalid_exits_2(self, capsys, tmp_path):
        p = str(tmp_path / "bad.json")
        with open(p, "w") as fh:
            json.dump({"n": 2, "gram": [[[1, 0], [2, 0]], [[2, 0], [1, 0]]]}, fh)
        code, _, err = run(capsys, "validate", "-i", p)
        assert code == 2
        assert "DuplicateStates" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "validate", "-i", str(tmp_path / "nope.json"))
        assert code == 2


class TestGraphAnalyze:
    def test_graph_output(self, capsys, text_file, tmp_path):
        g = str(tmp_path / "g.json")
        code, _, _ = run(capsys, "graph", "-i", text_file, "-o", g)
        assert code == 0
        assert qio.load_graph(g).edges == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_analyze_reports_shape(self, capsys, text_file, tmp_path):
        g = str(tmp_path / "g.json")
        run(capsys, "graph", "-i", text_file, "-o", g)
        code, out, _ = run(capsys, "analyze", "-g", g, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["class"] == "WellSplit"
        assert d["shape"]["n2"] == 3

    def test_analyze_not_split(self, capsys, tmp_path):
        g = str(tmp_path / "c4.json")
        qio.save_graph(qio.graph_from_dict(
            {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}), g)
        # producing the report is a success even when the graph is not split
        code, out, _ = run(capsys, "analyze", "-g", g, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["class"] == "NotSplit"
        assert d["forbidden_witness"]["kind"] == "C4"


    def test_analyze_recognizes_once(self, capsys, tmp_path, count_calls):
        # a triangle with two pendants: the report's splitting and its shape
        # come from one recognition
        g = str(tmp_path / "g.json")
        qio.save_graph(qtext.make_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)]), g)
        calls = count_calls(qtext.recognize)
        code, out, _ = run(capsys, "analyze", "-g", g, "--json")
        assert code == 0 and len(calls) == 1
        d = json.loads(out)
        assert d["shape"] == {"n2": 3, "ell": 2, "m": [1, 1], "labels": {
            "0": "w1", "1": "w2", "2": "w3", "3": "v1,1", "4": "v2,1"}}


class TestClassify:
    def test_positive(self, capsys, text_file):
        code, out, _ = run(capsys, "classify", "-i", text_file, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["translatable"] and d["reason"] == "OK_FULLY_QUANTUM"

    def test_q0_flag(self, capsys, text_file, classical_file):
        code, out, _ = run(capsys, "classify", "-i", text_file, "--q0", "--json")
        assert code == 1
        assert json.loads(out)["reason"] == "Q0_NOT_CLASSICAL"
        code, out, _ = run(capsys, "classify", "-i", classical_file, "--q0",
                           "--json")
        assert code == 0


class TestOrthogonalityEdge:
    def test_entry_at_zero_tol_is_orthogonal_in_every_command(self, capsys,
                                                              tmp_path):
        # |z01| is 1e-9 by the scalar modulus but one ulp above it by np.abs
        # of the complex array; every command must call the pair orthogonal
        g = np.eye(2, dtype=complex)
        g[0, 1] = 9.99143457665871e-10 + 4.138056311226185e-11j
        g[1, 0] = np.conj(g[0, 1])
        text = str(tmp_path / "edge.json")
        qio.save_text(validate_text(g), text)
        code, out, _ = run(capsys, "validate", "-i", text)
        assert code == 0
        d = json.loads(out)
        assert d["classical"] and not d["fully_quantum"]
        code, out, _ = run(capsys, "classify", "-i", text)
        assert code == 0 and json.loads(out)["reason"] == "OK_CLASSICAL"
        wit = str(tmp_path / "w.json")
        code, _, _ = run(capsys, "translate", "-i", text, "-o", wit)
        assert code == 0
        code, out, _ = run(capsys, "verify", "-i", text, "-w", wit)
        assert code == 0 and json.loads(out)["passed"]


class TestBorderline:
    @pytest.mark.parametrize("z02", [2e-9, 1e-8])
    def test_valid_but_undecided_exits_5(self, capsys, tmp_path, z02):
        # the reciprocal Gram of this 3-text has an eigenvalue on the edge
        # of the zero band: the text is valid, but no sign can be decided
        g = np.array([[1.0, 0.3, z02], [0.3, 1.0, 0.3], [z02, 0.3, 1.0]])
        p = str(tmp_path / "border.json")
        qio.save_text(validate_text(g), p)
        code, _, _ = run(capsys, "validate", "-i", p)
        assert code == 0
        for cmd in ("classify", "translate"):
            code, _, err = run(capsys, cmd, "-i", p, "--json")
            assert code == 5, cmd
            assert json.loads(err)["error"] == "BorderlineSignature"


class TestTranslateVerify:
    def test_pipeline(self, capsys, text_file, tmp_path):
        w = str(tmp_path / "w.json")
        code, _, _ = run(capsys, "translate", "-i", text_file, "-o", w)
        assert code == 0
        code, out, _ = run(capsys, "verify", "-i", text_file, "-w", w, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["passed"] and d["r1"] <= 1e-8 and d["r3"] <= 1e-8

    def test_untranslatable_exits_1_with_decision(self, capsys, tmp_path):
        from qtext import GenSpec, gen_text
        p = str(tmp_path / "u4.json")
        qio.save_text(gen_text(GenSpec(mode="untranslatable4", seed=0)), p)
        code, out, _ = run(capsys, "translate", "-i", p)
        assert code == 1
        d = json.loads(out)
        assert d["reason"] == "THEOREM_F_FAIL" and not d["translatable"]

    def test_tampered_witness_exits_3(self, capsys, text_file, tmp_path):
        w = str(tmp_path / "w.json")
        run(capsys, "translate", "-i", text_file, "-o", w)
        d = json.load(open(w))
        d["output_gram"][0][1][0] += 0.02
        d["output_gram"][1][0][0] += 0.02
        json.dump(d, open(w, "w"))
        code, out, _ = run(capsys, "verify", "-i", text_file, "-w", w, "--json")
        assert code == 3
        assert not json.loads(out)["passed"]

    def test_inconsistent_witness_exits_3(self, capsys, text_file, tmp_path):
        w = str(tmp_path / "w.json")
        run(capsys, "translate", "-i", text_file, "-o", w)
        d = json.load(open(w))
        d["tablet"][0][0] += 0.2  # breaks unit norm
        json.dump(d, open(w, "w"))
        code, _, _ = run(capsys, "verify", "-i", text_file, "-w", w)
        assert code == 3

    @pytest.mark.parametrize("q", [[1e200, 0.0], [1e308, 1e308]])
    def test_huge_q_exits_3(self, capsys, text_file, tmp_path, q):
        # |q|^2 overflows a float: the consistency gate refuses the q
        w = str(tmp_path / "w.json")
        run(capsys, "translate", "-i", text_file, "-o", w)
        d = json.load(open(w))
        d["q"] = q
        json.dump(d, open(w, "w"))
        code, _, err = run(capsys, "verify", "-i", text_file, "-w", w)
        assert code == 3
        assert err.startswith("error: QOutOfRange: ")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_output_exits_3(self, capsys, text_file, tmp_path, value):
        # the output gate refuses the entry before any residual is taken,
        # so no non-JSON token reaches the report
        w = str(tmp_path / "w.json")
        run(capsys, "translate", "-i", text_file, "-o", w)
        d = json.load(open(w))
        d["output_gram"][0][1][0] = d["output_gram"][1][0][0] = value
        json.dump(d, open(w, "w"))
        code, out, err = run(capsys, "verify", "-i", text_file, "-w", w, "--json")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "TranslationError",
                                   "message": "output Gram has a non-finite entry"}
        code, _, err = run(capsys, "verify", "-i", text_file, "-w", w)
        assert code == 3
        assert err == "error: TranslationError: output Gram has a non-finite entry\n"

    def test_unitary_of_the_wrong_shape_exits_3(self, capsys, text_file, tmp_path):
        w = str(tmp_path / "w.json")
        run(capsys, "translate", "-i", text_file, "-o", w)
        d = json.load(open(w))
        d["unitary"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        json.dump(d, open(w, "w"))
        code, _, err = run(capsys, "verify", "-i", text_file, "-w", w)
        assert code == 3
        assert err.startswith("error: DimensionMismatch: unitary has shape (2, 2)")

    def test_forced_sign_failure_exits_4(self, capsys, text_file, tmp_path):
        # z = 1/2 admits only Q < 0 and z = -1/4 only Q > 0, so the other
        # forced sign is refused up front
        negative = str(tmp_path / "negative.json")
        qio.save_text(validate_text(uniform_gram(3, -0.25)), negative)
        for path, sign in ((text_file, "+"), (negative, "-")):
            code, _, err = run(capsys, "translate", "-i", path, "--sign", sign)
            assert code == 4, sign
            assert "not admissible" in err

    def test_non_unitary_witness_exits_3(self, capsys, text_file, tmp_path):
        t = qio.load_text(text_file)
        w = str(tmp_path / "w.json")
        qio.save_witness(off_frame_stretch(t, qtext.translate(t)), w)
        code, out, _ = run(capsys, "verify", "-i", text_file, "-w", w, "--json")
        assert code == 3
        d = json.loads(out)
        assert d["r3"] <= 1e-8 and d["unitarity"] > 1e-10 and not d["passed"]

    def test_unpadded_tablet_verifies(self, capsys, tmp_path):
        # this witness's tablet lies in the span of the states (zero pad
        # entry), so it can live in the text's own r-dimensional embedding
        t = qtext.gen_text(qtext.GenSpec(mode="random_efficient", n=3, seed=2))
        w = qtext.translate(t)
        assert w.tablet[-1] == 0.0
        short = qtext.TranslationWitness(Q=w.Q, q=w.q, tablet=w.tablet[:-1],
                                         output_gram=w.output_gram)
        short.unitary = qtext.synthesize_unitary(t, short)
        assert short.unitary.shape == (9, 9)
        text, wit = str(tmp_path / "t.json"), str(tmp_path / "w.json")
        qio.save_text(t, text)
        qio.save_witness(short, wit)
        code, out, _ = run(capsys, "verify", "-i", text, "-w", wit, "--json")
        assert code == 0 and json.loads(out)["passed"]

    def test_q0_translate(self, capsys, classical_file, tmp_path):
        w = str(tmp_path / "w.json")
        code, _, _ = run(capsys, "translate", "-i", classical_file, "--q0",
                         "-o", w)
        assert code == 0
        d = json.load(open(w))
        assert d["Q"] == 0.0
        assert d["residuals"]["eq4"] == 0.0

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_q0_excludes_sign(self, capsys, classical_file, sign):
        code, _, _ = run(capsys, "translate", "-i", classical_file, "--q0",
                         "--sign", sign)
        assert code == 2

    def test_mixed_text_one_ulp_off_the_unit_diagonal(self, capsys, tmp_path):
        # clique {0,1,2,3} at -0.1 with pendants 4 -> 0 and 5 -> 1 at 0.3;
        # z_44 = 1 - 2^-53 is within validate_text's 1e-12 of one
        g = np.eye(6, dtype=complex)
        g[:4, :4] = uniform_gram(4, -0.1)
        g[0, 4] = g[4, 0] = g[1, 5] = g[5, 1] = 0.3
        g[4, 4] = 1.0 - 2.0 ** -53
        text, w = str(tmp_path / "t.json"), str(tmp_path / "w.json")
        qio.save_text(validate_text(g), text)
        assert qio.load_text(text).gram[4, 4] == 1.0 - 2.0 ** -53
        assert run(capsys, "classify", "-i", text)[0] == 0
        assert run(capsys, "translate", "-i", text, "-o", w)[0] == 0
        code, out, _ = run(capsys, "verify", "-i", text, "-w", w, "--json")
        assert code == 0
        d = json.loads(out)
        assert d["r1"] <= 1e-8 and d["r3"] <= 1e-8 and d["unitarity"] <= 1e-10

    def test_near_one_uniform_translates(self, capsys, tmp_path):
        # at z = 1 - 1e-5 the feasible |Q| window lies above the schedule the
        # central route once walked (exit 4 then)
        text, w = str(tmp_path / "t.json"), str(tmp_path / "w.json")
        qio.save_text(validate_text(uniform_gram(4, 0.99999)), text)
        assert run(capsys, "translate", "-i", text, "-o", w)[0] == 0
        code, out, _ = run(capsys, "verify", "-i", text, "-w", w, "--json")
        assert code == 0 and json.loads(out)["passed"]

    def test_deterministic_bytes(self, capsys, text_file, tmp_path):
        w1 = str(tmp_path / "w1.json")
        w2 = str(tmp_path / "w2.json")
        run(capsys, "translate", "-i", text_file, "-o", w1)
        run(capsys, "translate", "-i", text_file, "-o", w2)
        assert open(w1, "rb").read() == open(w2, "rb").read()


EDGE_VALUES = [float("nan"), float("inf"), float("-inf"), 1e308, 1.4e154, 5e-324, -0.0]


def reject_token(name):
    raise ValueError(f"{name} is not JSON")


class TestMalformedWitnessValues:
    """A valid witness of a uniform 3-text with one number replaced by an
    edge value: verify reports it (exit 2 or 3) and never raises, under the
    suite's error::RuntimeWarning filter.  A replacement of Q, q or a tablet
    entry that moves the number by at most 1e-12, below every tolerance of
    the check, leaves a valid witness, which still passes."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("witness")
        text, w = str(d / "t.json"), str(d / "w.json")
        qio.save_text(validate_text(uniform_gram(3, 0.5)), text)
        assert main(["translate", "-i", text, "-o", w]) == 0
        return text, qio.load_json(w), d

    @given(field=st.sampled_from(["Q", "q", "tablet", "output_gram"]),
           part=st.integers(0, 1), index=st.integers(0, 3), col=st.integers(0, 2),
           value=st.sampled_from(EDGE_VALUES))
    @settings(max_examples=200, deadline=None)
    def test_verify_exits_2_or_3(self, files, field, part, index, col, value):
        text, base, d = files
        w = json.loads(json.dumps(base))
        if field == "Q":
            old, w["Q"] = w["Q"], value
        elif field == "q":
            old, w["q"][part] = w["q"][part], value
        elif field == "tablet":
            old, w["tablet"][index][part] = w["tablet"][index][part], value
        else:
            row = w["output_gram"][index % 3]
            old, row[col][part] = row[col][part], value
        path = str(d / "bad.json")
        with open(path, "w") as fh:
            json.dump(w, fh)
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["verify", "-i", text, "-w", path])
        if field == "output_gram" and np.isfinite(value):
            # a finite output entry is no hard error: the report is written,
            # as strict JSON.  A move below every tolerance may still fail
            # r3, since the stored unitary maps onto the embedding of the
            # old output Gram, whose degenerate eigenbasis the move can turn
            assert code in (0, 3) and err.getvalue() == ""
            report = json.loads(out.getvalue(), parse_constant=reject_token)
            assert report["passed"] == (code == 0)
            assert code == 3 or abs(value - old) <= 1e-12
        elif abs(value - old) <= 1e-12:
            assert code == 0, err.getvalue()
        else:
            assert code in (2, 3), err.getvalue()
            assert err.getvalue().startswith("error: ")


class TestRealizeGen:
    def test_realize_pipeline(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        t = str(tmp_path / "t.json")
        w = str(tmp_path / "w.json")
        qio.save_graph(qio.graph_from_dict(
            {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}), g)
        code, _, _ = run(capsys, "realize", "-g", g, "-o", t, "-w", w)
        assert code == 0
        code, out, _ = run(capsys, "verify", "-i", t, "-w", w, "--json")
        assert code == 0
        assert json.loads(out)["passed"]

    def test_realize_construction_failure_exits_4(self, capsys, tmp_path,
                                                  monkeypatch):
        def fail(g):
            raise qtext.SearchBudgetExhausted("no feasible overlap scale")

        monkeypatch.setattr("qtext.cli.realize_graph", fail)
        g = str(tmp_path / "g.json")
        qio.save_graph(qtext.make_graph(2, [(0, 1)]), g)
        code, out, err = run(capsys, "realize", "-g", g, "--json")
        assert code == 4 and out == ""
        assert json.loads(err) == {"error": "SearchBudgetExhausted",
                                   "message": "no feasible overlap scale"}

    def test_realize_rejects_c4(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        qio.save_graph(qio.graph_from_dict(
            {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}), g)
        code, _, _ = run(capsys, "realize", "-g", g)
        assert code == 1

    def test_gen_modes(self, capsys, tmp_path):
        for mode, extra in [("random_efficient", []),
                            ("uniform", ["--z", "0.4"]),
                            ("untranslatable4", [])]:
            p = str(tmp_path / f"{mode}.json")
            code, _, _ = run(capsys, "gen", "--mode", mode, "--n", "4",
                             "--seed", "1", "-o", p, *extra)
            assert code == 0, mode
            qio.load_text(p)  # parses and validates

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_gen_uniform_needs_two_states(self, capsys, tmp_path, n):
        code, _, err = run(capsys, "gen", "--mode", "uniform", "--n", n,
                           "-o", str(tmp_path / "t.json"), "--json")
        assert code == 2
        assert json.loads(err)["error"] == "InfeasibleSpec"

    def test_gen_from_graph(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        p = str(tmp_path / "t.json")
        qio.save_graph(qio.graph_from_dict(
            {"n": 3, "edges": [[0, 1]]}), g)
        code, _, _ = run(capsys, "gen", "--mode", "from_graph", "-g", g,
                         "--seed", "0", "-o", p)
        assert code == 0
        t = qio.load_text(p)
        assert abs(t.gram[0, 1]) > 1e-9 and abs(t.gram[0, 2]) <= 1e-9


GRAM3 = qio.text_to_dict(validate_text(uniform_gram(3, 0.5)))["gram"].tolist()


# (argv, payload) pairs of TestMalformedJson; a callable payload maps a
# valid witness to the malformed one.  tests/test_cli_bytes.py runs each
# payload under every command that reads its kind of file.
MALFORMED = [
    (["validate", "-i", "BAD"], [1, 2]),
    (["validate", "-i", "BAD"], None),
    (["classify", "-i", "BAD"], [1, 2]),
    (["translate", "-i", "BAD"], [1, 2]),
    (["classify", "-i", "BAD"], {"n": "3", "gram": GRAM3}),
    (["classify", "-i", "BAD"], {"n": 3.0, "gram": GRAM3}),
    (["analyze", "-g", "BAD"], [1, 2]),
    (["analyze", "-g", "BAD"], {"n": 2, "edges": [[0, 0.5]]}),
    (["analyze", "-g", "BAD"], {"n": 2, "edges": [1]}),
    (["analyze", "-g", "BAD"], {"n": 2.7, "edges": [[0, 1]]}),
    (["analyze", "-g", "BAD"], {"n": True, "edges": []}),
    (["realize", "-g", "BAD"], {"n": 2, "edges": [["0", "1"]]}),
    (["gen", "--mode", "from_graph", "-g", "BAD"], {"n": 2, "edges": [[0, 0.5]]}),
    (["verify", "-i", "TEXT", "-w", "BAD"], [1, 2]),
    # a valid witness with one field replaced
    (["verify", "-i", "TEXT", "-w", "BAD"], lambda w: {**w, "q": 5}),
    (["verify", "-i", "TEXT", "-w", "BAD"], lambda w: {**w, "q": ["0.1", 0]}),
    (["verify", "-i", "TEXT", "-w", "BAD"], lambda w: {**w, "Q": None}),
    (["verify", "-i", "TEXT", "-w", "BAD"],
     lambda w: {**w, "embedding_dim": float(w["embedding_dim"])}),
    (["verify", "-i", "TEXT", "-w", "BAD"], lambda w: {**w, "residuals": [0, 0]}),
    # a JSON boolean is no number, alone or among floats
    (["validate", "-i", "BAD"],
     {"n": 2, "gram": [[[True, False], [False, False]], [[False, False], [True, False]]]}),
    (["validate", "-i", "BAD"],
     {"n": 2, "gram": [[[1.0, False], [0.0, 0.0]], [[0.0, 0.0], [True, 0.0]]]}),
    (["verify", "-i", "TEXT", "-w", "BAD"],
     lambda w: {**w, "tablet": [[True, 0.0]] + w["tablet"][1:]}),
]


class TestMalformedJson:
    """Well-formed JSON of the wrong shape is invalid input (exit 2), never
    a traceback.  BAD is the malformed file, TEXT a valid text."""

    @pytest.mark.parametrize("argv, payload", MALFORMED)
    def test_exits_2_with_json_error(self, capsys, tmp_path, text_file, argv, payload):
        if callable(payload):
            w = str(tmp_path / "w.json")
            assert run(capsys, "translate", "-i", text_file, "-o", w)[0] == 0
            payload = payload(qio.load_json(w))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        files = {"BAD": str(bad), "TEXT": text_file}
        code, _, err = run(capsys, *[files.get(a, a) for a in argv],
                           "-o", str(tmp_path / "out.json"), "--json")
        assert code == 2, err
        assert json.loads(err)["error"] == "ValueError"


class TestDeepNesting:
    """JSON nested deeper than the parser's recursion limit is invalid input
    (exit 2), never a RecursionError traceback with exit 1."""

    @pytest.mark.parametrize("blob", [
        "[" * 200_000,
        '{"n": 2, "gram": ' + "[" * 5000 + "]" * 5000 + "}",
    ], ids=["unclosed_brackets", "deep_gram"])
    @pytest.mark.parametrize("argv", [["validate", "-i"], ["translate", "-i"],
                                      ["analyze", "-g"], ["verify", "-i", "TEXT", "-w"]])
    def test_exits_2(self, capsys, tmp_path, text_file, blob, argv):
        bad = tmp_path / "deep.json"
        bad.write_text(blob)
        argv = [text_file if a == "TEXT" else a for a in argv]
        code, _, err = run(capsys, *argv, str(bad), "--json")
        assert code == 2
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "the JSON value is nested too deeply"}


class TestUnwritableOutput:
    """An output file that cannot be opened is invalid input (exit 2), never
    a traceback, and no file is left behind."""

    @pytest.mark.parametrize("json_errors", [[], ["--json"]])
    @pytest.mark.parametrize("command", ["validate", "translate"])
    def test_exits_2(self, capsys, tmp_path, text_file, command, json_errors):
        out = tmp_path / "nodir" / "x.json"
        code, stdout, err = run(capsys, command, "-i", text_file, "-o", str(out),
                                *json_errors)
        assert code == 2 and stdout == "" and not out.parent.exists()
        if json_errors:
            assert json.loads(err)["error"] == "FileNotFoundError"
        else:
            assert err.startswith("error: FileNotFoundError: ")

    def test_realize_witness_path(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        qio.save_graph(qtext.make_graph(3, [(0, 1), (1, 2)]), g)
        ok = tmp_path / "ok.json"
        code, _, err = run(capsys, "realize", "-g", g, "-o", str(ok),
                           "-w", str(tmp_path / "nodir" / "w.json"))
        assert code == 2
        assert err.startswith("error: FileNotFoundError: ")
        # the text was written before the witness failed
        assert qio.load_text(str(ok)).n == 3


class TestMissingKey:
    """A JSON object without a required key is invalid input (exit 2, the
    key in the message), not a failed verification and never a traceback."""

    def test_graph_file_as_text(self, capsys, tmp_path):
        g = str(tmp_path / "g.json")
        qio.save_graph(qtext.make_graph(2, [(0, 1)]), g)
        code, _, err = run(capsys, "validate", "-i", g)
        assert code == 2 and "'gram'" in err

    def test_text_file_as_graph(self, capsys, text_file):
        code, _, err = run(capsys, "analyze", "-g", text_file, "--json")
        assert code == 2 and "'edges'" in json.loads(err)["message"]

    def test_witness_without_tablet(self, capsys, tmp_path, text_file):
        w = str(tmp_path / "w.json")
        assert run(capsys, "translate", "-i", text_file, "-o", w)[0] == 0
        d = qio.load_json(w)
        del d["tablet"]
        qio.dump_json(d, w)
        code, _, err = run(capsys, "verify", "-i", text_file, "-w", w)
        assert code == 2 and "'tablet'" in err


class TestParsing:
    def test_unknown_flag_exits_2(self, capsys, text_file):
        code, _, _ = run(capsys, "validate", "-i", text_file, "--bogus")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_console_script(self, text_file):
        # `python -m qtext.cli` in a child process behaves like main(); the
        # child imports the same package as this test, installed or not.  The
        # installed `qtext` script itself runs only in CI, after pip install
        src = os.path.dirname(os.path.dirname(qtext.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "qtext.cli", "classify",
                               "-i", text_file, "--json"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["translatable"]


class TestStartup:
    def test_import_leaves_scipy_submodules_unloaded(self):
        # the SVD null space is numpy's and every construction route is in
        # closed form, so neither starting the CLI nor translating on the
        # eigenvector, singular-step, mixed and central routes loads
        # scipy.linalg or scipy.optimize
        src = os.path.dirname(os.path.dirname(qtext.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, numpy as np, qtext.cli\n"
            "from qtext import GenSpec, check_witness, gen_text, translate, validate_text\n"
            "a, z = 0.4, 0.4 ** 2 / (2 - 0.4 ** 2)\n"
            "core = np.array([[1, a, z], [a, 1, a], [z, a, 1]], dtype=complex)\n"
            "mixed = np.eye(4, dtype=complex)\n"
            "mixed[:3, :3] = core\n"
            "mixed[1, 3] = mixed[3, 1] = 0.2\n"
            "for g in (gen_text(GenSpec(mode='random_efficient', n=3, seed=0)).gram,\n"
            "          core, mixed, np.full((4, 4), 0.3) + 0.7 * np.eye(4)):\n"
            "    t = validate_text(g)\n"
            "    assert check_witness(t, translate(t)).passed\n"
            "print([m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

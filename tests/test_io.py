"""JSON round trips for texts, graphs, witnesses, and decisions."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtext import (
    GenSpec,
    TextError,
    check_witness,
    decide_translatable,
    gen_text,
    make_graph,
    translate,
    validate_text,
)
from qtext import io as qio
from qtext.cli import main
from tests.conftest import uniform_gram


class TestTextJson:
    def test_round_trip(self, path3):
        d = qio.text_to_dict(path3)
        assert d["n"] == 3
        back = qio.text_from_dict(d)
        np.testing.assert_array_equal(back.gram, path3.gram)

    def test_complex_entries(self):
        g = np.eye(2, dtype=complex)
        g[0, 1] = 0.3 + 0.4j
        g[1, 0] = 0.3 - 0.4j
        t = validate_text(g)
        back = qio.text_from_dict(qio.text_to_dict(t))
        np.testing.assert_array_equal(back.gram, t.gram)

    def test_load_validates(self):
        # a non-hermitian payload must be rejected on the way in
        d = {"n": 2, "gram": [[[1.0, 0.0], [0.5, 0.1]],
                              [[0.5, 0.2], [1.0, 0.0]]]}
        with pytest.raises(TextError):
            qio.text_from_dict(d)

    def test_size_cross_check(self, path3):
        d = qio.text_to_dict(path3)
        d["n"] = 4
        with pytest.raises((TextError, ValueError)):
            qio.text_from_dict(d)


class TestComplexArrays:
    @staticmethod
    def reference_pairs(a):
        # entry-by-entry conversion the vectorised writers must match
        a = np.asarray(a, dtype=complex)
        if a.ndim == 1:
            return [[float(x.real), float(x.imag)] for x in a]
        return [[[float(v.real), float(v.imag)] for v in row] for row in a]

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_writers_match_reference_bytes(self, kind):
        # a float64 array is written as the complex array it equals, with
        # +0.0 imaginary parts
        rng = np.random.default_rng(4)
        for shape in [(1, 1), (3, 3), (17, 17), (5,), (40,)]:
            a = rng.normal(size=shape)
            if kind == "complex":
                a = a + 1j * rng.normal(size=shape)
            flat = a.reshape(-1)
            flat[0] = complex(-0.0, 1e-300) if kind == "complex" else -0.0
            flat[-1] = complex(1e-300, -0.0) if kind == "complex" else 1e-300
            got = json.dumps(qio._complex_to_json(a).tolist(), indent=2, sort_keys=True)
            want = json.dumps(self.reference_pairs(a), indent=2, sort_keys=True)
            assert got == want
            assert qio._encode(qio._complex_to_json(a), 0) == want
            back = qio._complex_from_json(json.loads(got), a.ndim)
            assert back.shape == a.shape
            # exact, signs of zero included
            assert back.tobytes() == a.astype(complex).tobytes()

    def test_malformed_pairs_rejected(self):
        for rows in ([[[1.0, 0.0, 2.0]]], [[[1.0]]], [[[None, 0.0]]],
                     [[["1", "0"]]], [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]):
            with pytest.raises(ValueError):
                qio._complex_from_json(rows, 2)
        with pytest.raises(ValueError):
            qio._complex_from_json([[[1.0, 0.0]]], 1)


class TestGraphJson:
    def test_round_trip(self):
        g = make_graph(5, [(0, 3), (1, 2), (2, 4)])
        d = qio.graph_to_dict(g)
        assert d["edges"] == [[0, 3], [1, 2], [2, 4]]
        assert qio.graph_from_dict(d) == g


class TestWitnessJson:
    def test_round_trip(self, uniform3):
        w = translate(uniform3)
        d = qio.witness_to_dict(w)
        assert d["embedding_dim"] == w.embedding_dim
        back = qio.witness_from_dict(d)
        assert back.Q == w.Q
        np.testing.assert_array_equal(back.tablet, w.tablet)
        np.testing.assert_array_equal(back.output_gram, w.output_gram)
        np.testing.assert_array_equal(back.unitary, w.unitary)
        # the reloaded witness still verifies
        assert check_witness(uniform3, back).passed

    def test_witness_without_unitary(self, uniform3):
        w = translate(uniform3)
        d = qio.witness_to_dict(w)
        d["unitary"] = None
        back = qio.witness_from_dict(d)
        assert back.unitary is None
        rep = check_witness(uniform3, back)
        assert rep.passed and rep.r3 is None


class TestRequiredKeys:
    """A JSON object without a required key is a ValueError that names it."""

    def test_every_loader_names_its_missing_key(self, uniform3):
        cases = [(qio.text_from_dict, qio.text_to_dict(uniform3), ["gram"]),
                 (qio.graph_from_dict, qio.graph_to_dict(make_graph(3, [(0, 1)])),
                  ["edges", "n"]),
                 (qio.witness_from_dict, qio.witness_to_dict(translate(uniform3)),
                  ["tablet", "embedding_dim", "Q", "output_gram"])]
        for load, d, keys in cases:
            for key in keys:
                partial = {k: v for k, v in d.items() if k != key}
                with pytest.raises(ValueError, match=f"^the JSON object has no '{key}' key$"):
                    load(partial)

    def test_cli_reports_it_with_exit_2(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": 2, "edges": []}))
        assert main(["validate", "-i", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: ValueError: the JSON object has no 'gram' key\n")


class TestDecisionJson:
    def test_positive_decision(self, uniform3):
        d = qio.decision_to_dict(decide_translatable(uniform3))
        assert d["translatable"] is True
        assert d["reason"] == "OK_FULLY_QUANTUM"
        assert d["sign_constraint"] == [-1]
        assert d["signature"]["n_neg"] == 2

    def test_mixed_attachment_keys_are_strings(self, path3):
        d = qio.decision_to_dict(decide_translatable(path3))
        assert d["decomposition"]["attachment"] == {"2": 1}

    def test_forbidden_witness(self, two_k2):
        d = qio.decision_to_dict(decide_translatable(two_k2))
        assert d["forbidden_witness"]["kind"] == "TwoK2"
        assert sorted(d["forbidden_witness"]["vertices"]) == [0, 1, 2, 3]


class TestFiles:
    def test_save_load_text(self, tmp_path, path3):
        p = str(tmp_path / "t.json")
        qio.save_text(path3, p)
        np.testing.assert_array_equal(qio.load_text(p).gram, path3.gram)

    def test_output_is_stable(self, tmp_path, uniform3):
        # same object twice -> byte-identical files
        w = translate(uniform3)
        p1 = str(tmp_path / "a.json")
        p2 = str(tmp_path / "b.json")
        qio.save_witness(w, p1)
        qio.save_witness(w, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_trailing_newline_and_sorted_keys(self, tmp_path, path3):
        p = str(tmp_path / "t.json")
        qio.save_text(path3, p)
        raw = open(p).read()
        assert raw.endswith("\n")
        keys = list(json.loads(raw))
        assert keys == sorted(keys)


# floats json writes in a form of its own, or at the edges of repr
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 1e-5, 1e16, 5e-324]
FLOATS = st.floats() | st.sampled_from(EDGE_FLOATS)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS[3:])


def _nested(flat, shape):
    """`flat` as a list nested to `shape`."""
    for size in reversed(shape[1:]):
        flat = [flat[i:i + size] for i in range(0, len(flat), size)]
    return flat


@st.composite
def regular_arrays(draw):
    """Equal-length nested lists of floats or the float64 array of the same
    values, all finite (an array takes the template path) or possibly not
    (json's own path)."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    size = int(np.prod(shape))
    leaf = draw(st.sampled_from([FINITE, FLOATS]))
    value = _nested(draw(st.lists(leaf, min_size=size, max_size=size)), shape)
    return draw(st.sampled_from([value, np.array(value)]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text() | regular_arrays(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)
            + "\n").encode()


class TestDumpJsonBytes:
    """`dump_json` writes exactly `json.dumps(obj, indent=2, sort_keys=True,
    default=np.ndarray.tolist)` and a newline, though it fills float64
    arrays from a template."""

    @pytest.fixture(scope="class")
    def dump_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("dump") / "v.json"

    @given(JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_json_value(self, dump_path, value):
        qio.dump_json(value, str(dump_path))
        assert dump_path.read_bytes() == _json_bytes(value)

    def test_edge_values(self, tmp_path):
        p = tmp_path / "v.json"
        for value in [[], {}, [[]], [[], []], [[1.0, 2.0], [3.0]], [[1.0], 2.0],
                      EDGE_FLOATS, [EDGE_FLOATS[3:]] * 2, [[[0.5]]], (0.5, 1.5),
                      {"é": "ünï ", "": [1, True, None]}, {2: 2.0, 0.5: [], False: 3}, {None: 1},
                      [{1: [(1.0, "c\nd")], 2.5: {"a\nb": {}}}],
                      [1.0, 2], [np.float64(0.1), 0.2], [True, 1.0],
                      np.zeros((2, 0)), {"a": np.zeros((0, 3, 2))}, np.array(0.1),
                      [np.array(np.nan)], np.arange(6).reshape(2, 3),
                      np.array([[True, False]]), np.array([0.1, 1e16], dtype=np.float32)]:
            qio.dump_json(value, str(p))
            assert p.read_bytes() == _json_bytes(value), value

    def test_cycle_raises(self):
        a = []
        a.append(a)
        with pytest.raises(RecursionError):
            qio.dump_json({"a": a}, None)

    @pytest.mark.parametrize("gram", [
        np.eye(3),                                               # classical
        uniform_gram(16, 0.3),                                   # central, sign -
        uniform_gram(16, -0.5 / 15),                             # central, sign +
        gen_text(GenSpec(mode="random_efficient", n=3, seed=0)).gram,  # eigen
        [[1.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.0]],     # mixed
        np.block([[uniform_gram(3, 0.5), np.zeros((3, 1))],
                  [np.zeros((1, 3)), np.eye(1)]]),               # isolated
    ], ids=["classical", "central-", "central+", "eigen", "mixed", "isolated"])
    def test_witness_of_every_route(self, tmp_path, gram):
        t = validate_text(np.asarray(gram, dtype=complex))
        w = translate(t)
        p = tmp_path / "out.json"
        qio.save_witness(w, str(p))
        assert p.read_bytes() == _json_bytes(qio.witness_to_dict(w))
        qio.save_text(t, str(p))
        assert p.read_bytes() == _json_bytes(qio.text_to_dict(t))

    @pytest.mark.parametrize("argv", [
        ["gen", "--mode", "uniform", "--n", "4", "--z", "0.3"],
        ["validate", "-i", "TEXT"],
        ["graph", "-i", "TEXT"],
        ["analyze", "-g", "GRAPH"],
        ["classify", "-i", "TEXT"],
        ["classify", "-i", "REFUSED"],
        ["translate", "-i", "TEXT"],
        ["translate", "-i", "TEXT", "--sign", "-"],
        ["translate", "-i", "REFUSED"],
        ["realize", "-g", "GRAPH", "-w", "OUT2"],
        ["verify", "-i", "TEXT", "-w", "WITNESS"],
    ])
    def test_every_cli_output(self, tmp_path, monkeypatch, capsys, argv):
        files = {name: str(tmp_path / f"{name}.json")
                 for name in ("TEXT", "REFUSED", "GRAPH", "WITNESS", "OUT", "OUT2")}
        t = validate_text(uniform_gram(8, 0.3))
        qio.save_text(t, files["TEXT"])
        qio.save_text(gen_text(GenSpec(mode="untranslatable4", seed=0)), files["REFUSED"])
        qio.save_graph(make_graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), files["GRAPH"])
        qio.save_witness(translate(t), files["WITNESS"])
        written = []
        dump = qio.dump_json

        def recording(obj, path):
            written.append((obj, path))
            dump(obj, path)

        monkeypatch.setattr(qio, "dump_json", recording)
        for out in (files["OUT"], "-"):
            written.clear()
            main([files.get(a, a) for a in argv] + ["-o", out])
            assert written
            for obj, path in written:
                got = capsys.readouterr().out.encode() if path == "-" else open(path, "rb").read()
                assert got == _json_bytes(obj)

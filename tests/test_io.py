"""JSON round trips for texts, graphs, witnesses, and decisions."""

import json

import numpy as np
import pytest

from qtext import (
    TextError,
    check_witness,
    decide_translatable,
    make_graph,
    translate,
    validate_text,
)
from qtext import io as qio
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

    def test_writers_match_reference_bytes(self):
        rng = np.random.default_rng(4)
        for shape in [(1, 1), (3, 3), (17, 17), (5,), (40,)]:
            a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            flat = a.reshape(-1)
            flat[0] = complex(-0.0, 1e-300)
            flat[-1] = complex(1e-300, -0.0)
            write = qio.vector_to_json if a.ndim == 1 else qio.matrix_to_json
            read = qio.vector_from_json if a.ndim == 1 else qio.matrix_from_json
            got = json.dumps(write(a), indent=2, sort_keys=True)
            want = json.dumps(self.reference_pairs(a), indent=2, sort_keys=True)
            assert got == want
            back = read(json.loads(got))
            assert back.shape == a.shape
            assert back.tobytes() == a.tobytes()  # exact, signs of zero included

    def test_malformed_pairs_rejected(self):
        for rows in ([[[1.0, 0.0, 2.0]]], [[[1.0]]], [[[None, 0.0]]],
                     [[["1", "0"]]], [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]):
            with pytest.raises(ValueError):
                qio.matrix_from_json(rows)
        with pytest.raises(ValueError):
            qio.vector_from_json([[[1.0, 0.0]]])


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

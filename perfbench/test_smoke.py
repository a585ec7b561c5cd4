"""Tests of the benchmark itself.

    python -m pytest perfbench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import aggregate  # noqa: E402


def test_smoke_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for workload in ("decide", "translate", "oracle", "cli"):
        assert f"{workload}: correct=True" in proc.stdout, proc.stdout


def test_aggregate_splits_time_by_layer():
    ms = 1_000_000
    # decide (0-10 ms) calls recognize (1-7 ms), which calls
    # validate_text (2-3 ms) from another layer; a second recognize
    # (7-9 ms) runs directly under decide.
    spans = [
        (0, "classify.decide_translatable", 0, 10 * ms, None, 0),
        (1, "graphs.recognize", 1 * ms, 7 * ms, 0, 0),
        (2, "texts.validate_text", 2 * ms, 3 * ms, 1, 0),
        (3, "graphs.recognize", 7 * ms, 9 * ms, 0, 0),
    ]
    out = aggregate(spans, {}, requests=2)
    assert out["graphs.recognize_ms"] == pytest.approx((5 + 2) / 2)
    assert out["graphs.recognize_calls"] == pytest.approx(2 / 2)
    assert out["texts.validate_ms"] == pytest.approx(1 / 2)
    assert out["classify.decide_ms"] == pytest.approx(2 / 2)
    assert out["classify.self_ms"] == pytest.approx(2 / 2)
    assert out["graphs.self_ms"] == pytest.approx(7 / 2)


def test_aggregate_tells_search_from_eigen_route():
    ms = 1_000_000
    spans = [
        (0, "synth.search_translation", 0, 4 * ms, None, 0),
        (1, "synth.search_translation", 4 * ms, 10 * ms, None, 1),
        (2, "synth.optimizer", 5 * ms, 9 * ms, 1, 1),
    ]
    out = aggregate(spans, {"synth.search_evaluations": 10}, requests=2)
    assert out["synth.route_ms.eigen"] == pytest.approx(4 / 2)
    assert out["synth.route_ms.search"] == pytest.approx(6 / 2)
    assert out["synth.optimizer_calls"] == pytest.approx(1 / 2)
    assert out["synth.search_evaluations"] == pytest.approx(10 / 2)

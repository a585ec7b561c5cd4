"""The benchmark's contract with the package: the names `perfbench/tracing.py`
wraps and patches must exist, and its spans must cover the routes it times."""

import sys
from pathlib import Path

import numpy as np
import pytest

import qtext
from qtext import synth, translation
from tests.conftest import uniform_gram

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_sees_every_route_and_restores_the_package(tracer_module):
    originals = {
        "qtext.translate": qtext.translate,
        "synth._mixed_witness": synth._mixed_witness,
        "synth.search_translation": synth.search_translation,
        "translation.synthesize_unitary": translation.synthesize_unitary,
        "synth.synthesize_unitary": synth.synthesize_unitary,
    }
    optimize = synth.scipy.optimize
    minimize = optimize.minimize
    random3 = qtext.gen_text(qtext.GenSpec(mode="random_efficient", n=3, seed=0)).gram
    pendant = np.eye(4, dtype=complex)
    pendant[:3, :3] = random3
    pendant[0, 3] = pendant[3, 0] = 0.1

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert qtext.translate is not originals["qtext.translate"]
        tracer.request = 0
        for gram in (uniform_gram(5, 0.4), random3, pendant):
            qtext.translate(qtext.validate_text(gram))
        # translate reaches every text with a core through _mixed_witness;
        # search_translation is the input check in front of it
        synth.search_translation(qtext.validate_text(random3), +1)
        qtext.realize_graph(qtext.make_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)]))
        tracer.request = None
    finally:
        tracer.uninstall()

    names = {span[1] for span in tracer.spans}
    assert {"synth.search_translation", "synth._mixed_witness",
            "translation.synthesize_unitary", "synth.translate",
            "synth.realize_graph"} <= names
    assert tracer.counters["synth.search_evaluations"] > 0
    restored = {
        "qtext.translate": qtext.translate,
        "synth._mixed_witness": synth._mixed_witness,
        "synth.search_translation": synth.search_translation,
        "translation.synthesize_unitary": translation.synthesize_unitary,
        "synth.synthesize_unitary": synth.synthesize_unitary,
    }
    assert restored == originals
    assert optimize.minimize is minimize

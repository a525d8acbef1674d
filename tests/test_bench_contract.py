"""The library keeps the bindings and the eval contract the benchmark relies on.

``perfbench/tracer.py`` is loaded from its path and used unchanged.  Its
traced run replaces each ``(owner, attr)`` in ``TRACED`` through
``owner.__dict__`` and checks that every counted eval is one traced
``ObjectiveFamily.value`` call; a renamed binding or an eval that bypasses
``value`` would fail the benchmark, so it fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from twostage.objectives import make_synthetic
from twostage.streaming import ThresholdManager

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_is_an_own_attribute(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracer.TRACED
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_value_calls_equal_evals(tracer):
    F = make_synthetic("coverage", 30, 3, seed=5)
    order = list(range(30))
    np.random.default_rng(5).shuffle(order)
    tr = tracer.Tracer()
    before = F.evals
    with tr.installed(), tr.span("solve"):
        ThresholdManager(F, 0.5, 5, 2).run(order).best_solution()
    evals = F.evals - before
    assert evals > 0
    assert tracer.Spans(tr, [1.0]).value_calls_per_solve() == [evals]

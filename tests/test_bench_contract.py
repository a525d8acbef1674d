"""The library keeps the bindings and the eval contract the benchmark relies on.

``perfbench/tracer.py`` is loaded from its path and used unchanged.  Its
traced run replaces each ``(owner, attr)`` in ``TRACED`` through
``owner.__dict__`` and checks that every counted eval is one traced
``ObjectiveFamily.value`` call; a renamed binding or an eval that bypasses
``value`` would fail the benchmark, so it fails here first.  Its split of a
distributed run into workers and merge also needs both solvers to call
``replacement_greedy`` and ``pseudo_streaming`` through the module globals
of ``twostage.distributed``.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from twostage import distributed, greedy
from twostage.objectives import exemplar_family, make_synthetic
from twostage.streaming import ThresholdManager

from conftest import float_features

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
    # facility and exemplar families carry block kernels: their greedy
    # probes are batched, yet each eval must still be one traced value call
    G = make_synthetic("facility", 30, 3, seed=5)
    E = exemplar_family(float_features(30, 4, 5), 4)
    assert G._block is not None and E._block is not None
    solves = [
        (F, lambda: ThresholdManager(F, 0.5, 5, 2).run(order).best_solution()),
        (F, lambda: greedy.replacement_greedy(F, range(30), 5, 2)),
        (F, lambda: distributed.distributed_fast(F, 3, 0.5, 5, 2, seed=5)),
        (G, lambda: greedy.replacement_greedy(G, range(30), 5, 2)),
        (G, lambda: distributed.replacement_distributed(G, 3, 5, 2, seed=5)),
        (E, lambda: greedy.replacement_greedy(E, range(30), 5, 2)),
        (E, lambda: distributed.distributed_fast(E, 3, 0.5, 5, 2, seed=5)),
    ]
    tr = tracer.Tracer()
    evals = []
    with tr.installed():
        for fam, solve in solves:
            before = fam.evals
            with tr.span("solve"):
                solve()
            evals.append(fam.evals - before)
    assert all(e > 0 for e in evals)
    spans = tracer.Spans(tr, [1.0] * len(solves))
    assert spans.value_calls_per_solve() == evals


@pytest.mark.parametrize("solver", ["distributed", "fast"])
def test_solvers_call_workers_and_merge_through_module_globals(monkeypatch,
                                                              solver):
    n, M, seed = 24, 40, 7
    busy = len(distributed.partition(n, M, seed))
    assert 1 < busy < M
    calls = {"greedy": 0, "stream": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(distributed, "replacement_greedy",
                        counting("greedy", distributed.replacement_greedy))
    monkeypatch.setattr(distributed, "pseudo_streaming",
                        counting("stream", distributed.pseudo_streaming))
    F = make_synthetic("coverage", n, 3, seed=2)
    if solver == "distributed":
        distributed.replacement_distributed(F, M, 4, 2, seed)
        assert calls == {"greedy": busy + 1, "stream": 0}
    else:
        distributed.distributed_fast(F, M, 0.5, 4, 2, seed)
        assert calls == {"greedy": 1, "stream": busy}

#!/usr/bin/env python3
"""End-to-end benchmark of the twostage solvers, one workload per run.

    python3 perfbench/run.py --workload greedy-facility --seed 0 \\
        --seconds 15 --trace 0

Run it from the root of a checkout: it imports the library from ``src/``
next to this directory and refuses to run without it.  Every input is made
from ``--seed``; inputs that need files (the feature CSVs and the reports)
go to a temporary directory under ``perfbench/out``.

With ``--trace 0`` the run sets the workload up several times (``setup_s``
is the median), then repeats the workload's solver calls, one pass over its
instances per round, for ``--seconds``.  Every solver result passes the
output check: ``TwoStageSolution.check()``, ``evaluate_solution`` equal to
the reported value to 1e-9, and the same evals and values in every round.
A result that fails the check, or a call that raises, counts as failed and
makes the run exit 1.  The end-to-end metrics are per round:

    solve_s      sum over instances of the median time of its solver call
    setup_s      median time to generate, ingest and build every instance
    value        mean value of the returned solutions (deterministic)
    evals        ObjectiveFamily.evals added by one round (deterministic)
    peak_alloc_mb
                 peak memory allocated during the first instance's solver
                 call, counting the inputs the set-up left live, as
                 ``tracemalloc`` counts it (Python objects and numpy
                 buffers; not the interpreter's own)

``failed_frac`` is printed with them; the final JSON line carries it as
``failed`` out of ``attempted``.  ``peak_alloc_mb`` comes from an extra,
untimed pass after the timed rounds, because ``tracemalloc`` makes the
solvers three to four times slower.

Times are speed-normalised.  On a shared 2-core host the same code runs up
to half again slower for minutes at a time, which no run length averages
away.  So a fixed reference workload (``Yardstick``) is timed just before
and just after every timed call, the call's wall time is divided by the
mean of the two, and the ratio is reported in seconds of a machine on which
the yardstick takes ``Yardstick.SECONDS``.  The raw wall times are printed
next to them.

With ``--trace 1`` the run spends half of ``--seconds`` on untraced rounds,
then makes one round under the outside-in tracer (``tracer.py``), writes the
raw spans to ``perfbench/out/<workload>.spans.npz`` and reports the
per-layer metrics of that round, its times normalised like ``solve_s``.  It also checks that the traced ``core.value`` calls of
every solve equal that solve's evals.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Seeds 0-9 were used while sizing the workloads; seed 4242 is held out for
checking later performance claims.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 5, 50, 3.0
MIN_ROUNDS = 2
E2E_UNITS = {"solve_s": "s", "setup_s": "s", "value": "objective",
             "evals": "count", "peak_alloc_mb": "MiB"}


def _import_library():
    """Put the checkout's ``src`` first on the path and import twostage."""
    package = SRC / "twostage" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} is missing; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import twostage
    if Path(twostage.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported twostage from {twostage.__file__}, "
                 f"not from {package}")


def machine_info() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


class Yardstick:
    """A fixed mix of interpreter and small-numpy work that measures speed.

    Its parts echo what the solvers do per evaluation: integer arithmetic,
    set and dict updates, small sorted tuples, and numpy slices and
    fancy-indexed column maxima.  Timing it just before and just after a
    measured call gives the host's speed during that call.
    """

    SECONDS = 0.007  # about its median wall time on the 2-core sizing host

    def __init__(self):
        import numpy as np
        self.vector = np.arange(64.0)
        self.matrix = np.random.default_rng(0).random((10, 200))

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(15_000):
            acc += i * i % 7
        seen, last = set(), {}
        for i in range(3_000):
            seen.add(i & 255)
            last[i & 127] = i
            if i % 8 == 0:
                acc += float(self.vector[: i % 64 + 1].max())
        for i in range(400):
            cols = [i % 200, i * 7 % 200, i * 13 % 200]
            acc += float(self.matrix[:, cols].max(axis=1).sum())
        for i in range(1_500):
            ids = {i & 31, i * 7 & 31, i * 13 & 31}
            acc += len(tuple(sorted(ids - {i & 31} | {5})))
        return time.perf_counter() - start

    def timed(self, call):
        """Run ``call()``; returns (result, wall seconds, normalised seconds)."""
        before = self.seconds()
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        after = self.seconds()
        return result, wall, wall * self.SECONDS / ((before + after) / 2)


class Gate:
    """Runs solver calls and checks every result they return."""

    def __init__(self, cases, yardstick: Yardstick):
        self.cases = cases
        self.yardstick = yardstick
        self.expected = [None] * len(cases)
        self.digests = [None] * len(cases)
        self.wall = [[] for _ in cases]
        self.norm = [[] for _ in cases]
        self.attempted = 0
        self.failed = 0

    def _fail(self, j: int, why: str):
        self.failed += 1
        print(f"# FAILED instance {j}: {why}", file=sys.stderr)

    def solve(self, j: int, around=nullcontext) -> int | None:
        """One timed solver call on case j; returns its evals, None if it failed."""
        from twostage.core import evaluate_solution
        case = self.cases[j]
        self.attempted += 1
        gc.collect()
        before = case.F.evals

        def call():
            with around():
                return case.solve()
        try:
            result, wall, norm = self.yardstick.timed(call)
        except Exception:  # a solver that raises is a failed call, not a crash
            self._fail(j, traceback.format_exc())
            return None
        evals = case.F.evals - before
        try:
            sols = case.solutions(result)
            for sol in sols:
                sol.check()
                value = evaluate_solution(case.F, sol)
                if not math.isclose(value, sol.value, rel_tol=1e-9,
                                    abs_tol=1e-9):
                    raise ValueError(f"reported value {sol.value!r} but "
                                     f"evaluate_solution gives {value!r}")
        except (ValueError, KeyError, OSError) as exc:
            self._fail(j, repr(exc))
            return None
        signature = (evals, tuple(sol.value for sol in sols))
        if self.expected[j] is None:
            self.expected[j] = signature
            self.digests[j] = _digest(sols)
        elif signature != self.expected[j]:
            self._fail(j, f"evals and values {signature} differ from the "
                          f"first round's {self.expected[j]}")
            return None
        self.wall[j].append(wall)
        self.norm[j].append(norm)
        return evals

    def rounds(self, seconds: float, around=nullcontext) -> int:
        """Pass over the cases for ``seconds``, at least MIN_ROUNDS times.

        The last pass may stop part-way, so the run ends close to its
        deadline; each case's time is a median over its own calls.
        """
        deadline = time.perf_counter() + seconds
        done = 0
        while done < MIN_ROUNDS or time.perf_counter() < deadline:
            for j in range(len(self.cases)):
                if done >= MIN_ROUNDS and time.perf_counter() >= deadline:
                    break
                self.solve(j, around)
            done += 1
        return done

    def solve_s(self, times=None) -> float:
        """Sum over instances of the median time of one call."""
        return sum(statistics.median(t) for t in (times or self.norm) if t)

    def evals(self) -> int:
        return sum(sig[0] for sig in self.expected if sig is not None)

    def value(self) -> float:
        values = [v for sig in self.expected if sig is not None
                  for v in sig[1]]
        return sum(values) / len(values) if values else 0.0


def _digest(sols) -> str:
    """Short hash of the summaries and per-function sets (printed, not gated)."""
    text = repr([(sorted(s.summary), [sorted(t) for t in s.per_function])
                 for s in sols])
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _setup(workload, seed: int, workdir: Path, yardstick: Yardstick):
    """Set up repeatedly; returns the last cases and the median set-up time."""
    wall, norm = [], []
    cases = None
    while (len(wall) < SETUP_MIN_REPEATS
           or (sum(wall) < SETUP_BUDGET_S
               and len(wall) < SETUP_MAX_REPEATS)):
        cases = None
        gc.collect()
        cases, w, n = yardstick.timed(lambda: workload.setup(seed, workdir))
        wall.append(w)
        norm.append(n)
    print(f"# setup repeats {len(wall)}, median wall "
          f"{statistics.median(wall):.6g} s")
    return cases, statistics.median(norm)


def _peak_alloc_mib(workload, seed: int, workdir: Path) -> float:
    """Peak traced allocation during the first case's solve, inputs included.

    The set-up's own transient peak is left out, so that the figure follows
    what the solver holds rather than the generators' scratch arrays.
    """
    gc.collect()
    tracemalloc.start()
    try:
        cases = workload.setup(seed, workdir)
        tracemalloc.reset_peak()
        cases[0].solve()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(workload, seed: int, seconds: float, workdir: Path) -> dict:
    yardstick = Yardstick()
    cases, setup_s = _setup(workload, seed, workdir, yardstick)
    gate = Gate(cases, yardstick)
    rounds = gate.rounds(seconds)
    print(f"# rounds {rounds} of {len(cases)} solver calls; median wall "
          f"solve {gate.solve_s(gate.wall):.6g} s; digests "
          + " ".join(d or "-" for d in gate.digests))
    metrics = {
        "solve_s": gate.solve_s(),
        "setup_s": setup_s,
        "value": gate.value(),
        "evals": gate.evals(),
        "peak_alloc_mb": _peak_alloc_mib(workload, seed, workdir),
    }
    print(f"failed_frac {gate.failed / gate.attempted:.6g} ratio")
    return _result(gate, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()})


def trace(workload, seed: int, seconds: float, workdir: Path) -> dict:
    import tracer as tracing
    tr = tracing.Tracer()
    yardstick = Yardstick()

    def traced_setup():
        with tr.installed(), tr.span("setup"):
            return workload.setup(seed, workdir)
    cases, setup_wall, setup_norm = yardstick.timed(traced_setup)
    gate = Gate(cases, yardstick)
    untraced_rounds = gate.rounds(seconds / 2)
    untraced = [list(t) for t in gate.norm]

    @contextmanager
    def traced():
        with tr.installed(), tr.span("solve"):
            yield

    # One traced round: its span count (over two million on stream-coverage)
    # sets the tracer's memory, so it does not grow with --seconds.
    traced_evals = [gate.solve(j, traced) for j in range(len(cases))]

    # Scale each root span's subtree by the yardstick factor of its call, so
    # traced times are in the same normalised seconds as solve_s.
    factors = [setup_norm / setup_wall] + [n[-1] / w[-1] for n, w in
                                            zip(gate.norm, gate.wall)]
    spans = tracing.Spans(tr, factors)
    value_calls = spans.value_calls_per_solve()
    if value_calls != traced_evals:
        gate.failed += 1
        print(f"# FAILED: traced core.value calls {value_calls} differ from "
              f"evals {traced_evals}", file=sys.stderr)
    print(f"# untraced rounds {untraced_rounds}, then one traced round; "
          "self time by span:")
    table = spans.self_time_table()
    for name, calls, self_s in table:
        if calls:
            print(f"#   {name:38s} {calls:10d} calls {self_s:10.4f} s")
    print(f"#   {'sum of self times (= trace.solve_s)':49s} "
          f"{sum(self_s for *_, self_s in table):10.4f} s")
    overhead = sum(t[-1] for t in gate.norm) \
        - sum(statistics.median(u) for u in untraced)
    layers = tracing.layer_metrics(tr, spans, overhead)
    tr.save(OUT / f"{workload.name}.spans.npz")
    units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
    return _result(gate, {k: (v, units[k]) for k, v in layers.items()})


def _result(gate: Gate, metrics: dict) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    _import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    print("# machine " + json.dumps(machine_info()))
    print(f"# workload {workload.name} seed {args.seed}: {workload.why}")
    OUT.mkdir(exist_ok=True)
    run = trace if args.trace else measure
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        result = run(workload, args.seed, args.seconds, Path(workdir))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

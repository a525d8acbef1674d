"""The benchmark's three workloads, each built only from a seed.

A workload turns the run's ``--seed`` into ``instances`` instance seeds and
builds one case per instance seed.  A case holds the objective family the
solver evaluates, the solver call that is timed, and the conversion of that
call's result into the ``TwoStageSolution`` objects the output check reads.

Several instances per run, rather than one large one, keep the run-to-run
spread of ``evals`` and ``value`` across seeds small: the streaming
workload's eval count alone varies by 10-20% between single instances.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from twostage import cli, greedy, objectives, streaming
from twostage.core import ObjectiveFamily, TwoStageSolution


@dataclass
class Case:
    """One instance: the family, the timed solver call, and its outputs."""

    F: ObjectiveFamily
    solve: Callable[[], Any]
    solutions: Callable[[Any], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: int
    build: Callable[[int, Path], Case]

    def setup(self, seed: int, workdir: Path) -> list:
        """Build every case of this run; the same seed gives the same cases."""
        states = np.random.SeedSequence(seed).generate_state(self.instances)
        return [self.build(int(s), workdir) for s in states]


# greedy-facility: the criterion-8 shape (m=10, ell=25, k=5), smaller n.
GREEDY_N, GREEDY_M, GREEDY_ELL, GREEDY_K = 100, 10, 25, 5


def _greedy_facility(seed: int, workdir: Path) -> Case:
    F = objectives.make_synthetic("facility", GREEDY_N, GREEDY_M, seed)
    return Case(
        F,
        lambda: greedy.replacement_greedy(F, range(GREEDY_N),
                                          GREEDY_ELL, GREEDY_K),
        lambda sol: [sol])


# stream-coverage: ThresholdManager(F, 0.1, 10, 3) over a shuffled stream.
# Sixteen instances of n=300 take about 12 s a round.  At n=1000 only about
# three instances would fit, and single instances there differ by 10-20% in
# evals, which would show as run-to-run spread across seeds.
STREAM_N, STREAM_M, STREAM_EPS, STREAM_ELL, STREAM_K = 300, 5, 0.1, 10, 3


def _stream_coverage(seed: int, workdir: Path) -> Case:
    F = objectives.make_synthetic("coverage", STREAM_N, STREAM_M, seed)
    order = list(range(STREAM_N))
    np.random.default_rng([seed, 1]).shuffle(order)

    def solve():
        mgr = streaming.ThresholdManager(F, STREAM_EPS, STREAM_ELL, STREAM_K)
        return mgr.run(order).best_solution()

    return Case(F, solve, lambda sol: [sol])


# distributed-exemplar: the ``twostage`` CLI path, in process.  With n=160
# each of the 6 machines gets about 27 elements, near three times ell=10, so
# the merge sees at most 60 of the 160.  At n=240 and n=300 each call took
# 4-5 s, its time varied by about 14% between calls in one process on the
# 2-core sizing host, and too few calls fit in a run to steady solve_s.
EXEMPLAR_N, EXEMPLAR_CLASSES = 160, 20


def _row_solution(row) -> TwoStageSolution:
    return TwoStageSolution(frozenset(row.summary),
                            tuple(frozenset(t) for t in row.per_function),
                            row.value, row.ell, row.k)


def _distributed_exemplar(seed: int, workdir: Path) -> Case:
    dataset = workdir / f"features-{seed}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["gen-synthetic", "--kind", "features",
                           "--n", str(EXEMPLAR_N),
                           "--class-count", str(EXEMPLAR_CLASSES),
                           "--seed", str(seed), "--out", str(dataset)])
    if status != 0:
        raise RuntimeError(f"gen-synthetic exited with {status}")
    ground, _ = cli.load_features_csv(dataset, EXEMPLAR_CLASSES)
    F = objectives.exemplar_family(ground.payload, EXEMPLAR_CLASSES)
    config = cli.ExperimentConfig(
        objective="exemplar-csv", dataset=str(dataset),
        class_count=EXEMPLAR_CLASSES, n=EXEMPLAR_N, ells=(10,), ks=(3,),
        epsilons=(0.5,), machines=(6,), algorithms=("distributed", "fast"),
        seed=seed, output=str(workdir / f"report-{seed}"))

    def solve():
        rows = cli.run_experiment(config, family=F)
        for fmt in config.formats:
            cli.emit_report(rows, f"{config.output}.{fmt}", fmt)
        return rows

    def solutions(rows):
        written = cli.load_report_json(f"{config.output}.json")
        if [r.to_jsonable() for r in written] != \
                [r.to_jsonable() for r in rows]:
            raise ValueError("report JSON does not round-trip the rows")
        return [_row_solution(r) for r in rows]

    return Case(F, solve, solutions)


WORKLOADS = {w.name: w for w in (
    Workload("greedy-facility",
             "replacement_greedy on facility location: a read-only scan of "
             "every candidate against fixed per-function sets; streaming and "
             "distributed are bypassed",
             2, _greedy_facility),
    Workload("stream-coverage",
             "ThresholdManager over shuffled coverage streams: many small "
             "states mutated per element, pure-Python bitmask kernel; greedy "
             "and distributed are bypassed",
             16, _stream_coverage),
    Workload("distributed-exemplar",
             "the CLI path on exemplar features: the only workload that runs "
             "partition, greedy and pseudo-streaming workers, the merge and "
             "the report",
             4, _distributed_exemplar),
)}

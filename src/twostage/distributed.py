"""Simulated multi-machine solvers.

Both algorithms follow the partition-and-merge template of GreeDi: split the
elements at random over M machines, solve each machine in-process, run a
greedy merge over the union of the worker summaries, and return the better
of (best worker solution, merged solution).  Only the worker differs.
"""

from __future__ import annotations

from operator import index
from typing import Callable, Iterable

import numpy as np

from .core import (ObjectiveFamily, TwoStageSolution, _check_seed,
                   empty_solution)
from .greedy import replacement_greedy
from .streaming import ThresholdManager


def partition(ground_n: int, M: int, seed: int) -> list[list[int]]:
    """The ids of each machine that draws any, in machine order, ascending.

    Every id draws its machine uniformly and independently from a stream
    derived from the seed, so later sources of randomness can be added
    without disturbing existing partitions.  Machines that draw nothing are
    left out, so the cost depends on ``ground_n`` only, not on ``M``.
    Raises TypeError unless ``M`` and ``seed`` are integers, ValueError if
    ``seed`` is negative (see ``_check_seed``).
    """
    if index(M) < 1:
        raise ValueError("need at least one machine")
    _check_seed(seed)
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    machine = np.random.default_rng(stream).integers(0, M, ground_n)
    order = np.argsort(machine, kind="stable")
    cuts = np.flatnonzero(np.diff(machine[order])) + 1
    return [ids.tolist() for ids in np.split(order, cuts) if ids.size]


def _better(a: TwoStageSolution, b: TwoStageSolution) -> TwoStageSolution:
    """b only wins strictly; ties keep the earlier candidate."""
    return b if b.value > a.value else a


def _partition_and_merge(
        F: ObjectiveFamily, M: int, ell: int, k: int, seed: int,
        worker: Callable[[list[int]], Iterable[TwoStageSolution]]
) -> TwoStageSolution:
    """Run ``worker`` on each machine's ids, then greedy-merge the summaries.

    ``worker(part)`` gets one machine's ids in ascending order and returns
    that machine's solutions.
    """
    best = empty_solution(F.m, ell, k)
    candidates: set[int] = set()
    for part in partition(F.ground.n, M, seed):
        for sol in worker(part):
            candidates.update(sol.summary)
            best = _better(best, sol)
    if not candidates:
        return best
    return _better(best, replacement_greedy(F, sorted(candidates), ell, k))


def replacement_distributed(F: ObjectiveFamily, M: int, ell: int, k: int,
                            seed: int) -> TwoStageSolution:
    """Greedy workers over a random split, then a greedy merge of their summaries."""
    return _partition_and_merge(
        F, M, ell, k, seed,
        lambda part: [replacement_greedy(F, part, ell, k)])


def pseudo_streaming(part: Iterable[int], F: ObjectiveFamily, epsilon: float,
                     ell: int, k: int, alpha: float = 1.0) -> tuple:
    """Streaming over a canonically sorted order: every surviving (tau, solution).

    Sorting by element id makes the output a function of the input *set*,
    which the merge-consistency argument of the fast algorithm needs.
    """
    mgr = ThresholdManager(F, epsilon, ell, k, alpha=alpha)
    return tuple(mgr.run(sorted(set(part))).all_solutions())


def distributed_fast(F: ObjectiveFamily, M: int, epsilon: float, ell: int,
                     k: int, seed: int, alpha: float = 1.0
                     ) -> TwoStageSolution:
    """Pseudo-streaming workers, then a greedy merge over all kept summaries."""
    return _partition_and_merge(
        F, M, ell, k, seed,
        lambda part: [sol for _, sol in pseudo_streaming(
            part, F, epsilon, ell, k, alpha=alpha)])


def recommend_machine_count(n: int, ell: int, variant: str) -> int:
    """Machine counts minimizing total work for each distributed variant.
    Raises TypeError unless ``n`` and ``ell`` are integers."""
    if index(n) < 1 or index(ell) < 1:
        raise ValueError("n and ell must be at least 1")
    if variant == "distributed":
        return max(1, int((n / ell) ** 0.5 + 0.5))
    if variant == "fast":
        return max(1, int(n ** 0.5 / ell + 0.5))
    raise ValueError(f"unknown variant {variant!r}")

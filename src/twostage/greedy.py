"""Centralized swap-based greedy for the two-stage problem.

Runs for up to ell rounds; each round picks the candidate with the largest
total additive gain across all functions and applies the implied
insertion/swap to every per-function solution that benefits.  This is both
the standalone solver and the merge step of the distributed variants, so
determinism (lowest-id tie-break) matters.
"""

from __future__ import annotations

from typing import Iterable

from .core import (ObjectiveFamily, TwoStageSolution, check_budgets,
                   lambda_gain, solution_from_sets)


def replacement_greedy(F: ObjectiveFamily, candidates: Iterable[int],
                       ell: int, k: int) -> TwoStageSolution:
    """Greedy two-stage solve restricted to ``candidates``.

    Stops early when no remaining candidate has positive total gain; adding
    such elements could never change any per-function solution.
    """
    cands = sorted(set(candidates))
    if not cands:
        raise ValueError("candidate set must be non-empty")
    check_budgets(ell, k)

    m = F.m
    S: set[int] = set()
    T = [set() for _ in range(m)]
    base = [0.0] * m  # cached f_i(T_i)

    for _ in range(ell):
        best_total = 0.0
        best_x = None
        best_outs = None
        for x in cands:
            if x in S:
                continue
            outs = [lambda_gain(F, i, x, T[i], k, base=base[i])
                    for i in range(m)]
            total = sum([o.gain for o in outs])
            if total > best_total:  # strict: ties keep the lowest id
                best_total = total
                best_x = x
                best_outs = outs
        if best_x is None:
            break
        S.add(best_x)
        for i, out in enumerate(best_outs):
            if out.gain > 0:
                if out.replaced is not None:
                    T[i].discard(out.replaced)
                T[i].add(best_x)
                base[i] = F.value(i, T[i])

    return solution_from_sets(F, S, T, ell, k)

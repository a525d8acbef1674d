"""Centralized swap-based greedy for the two-stage problem.

Runs for up to ell rounds; each round picks the candidate with the largest
total additive gain across all functions and applies the implied
insertion/swap to every per-function solution that benefits.  This is both
the standalone solver and the merge step of the distributed variants, so
determinism (lowest-id tie-break) matters.
"""

from __future__ import annotations

from typing import Iterable

from .core import (ObjectiveFamily, TwoStageSolution, _move, _swap_move,
                   check_budgets, solution_from_sets)
# replacement_greedy fuses lambda_gain's clamp into its own loop; the name
# stays bound here because perfbench/tracer.py wraps greedy.lambda_gain, and
# test_every_traced_binding_is_an_own_attribute checks that it exists.
from .core import lambda_gain  # noqa: F401


def replacement_greedy(F: ObjectiveFamily, candidates: Iterable[int],
                       ell: int, k: int) -> TwoStageSolution:
    """Greedy two-stage solve restricted to ``candidates``.

    Stops early when no remaining candidate has positive total gain; adding
    such elements could never change any per-function solution.

    The per-function gain is ``lambda_gain``'s: the insertion gain below
    budget, the best-swap gain clamped at 0 at budget.  On a family with
    swap kernels, an at-budget probe gets its k swap values from one kernel
    call (``_swap_move``); the values, the evals and the ``value`` calls
    are the same as on the scalar path.
    """
    cands = sorted(set(candidates))
    if not cands:
        raise ValueError("candidate set must be non-empty")
    check_budgets(ell, k)
    for x in (cands[0], cands[-1]):
        if not 0 <= x < F.ground.n:
            raise ValueError(f"element {x} out of range [0, {F.ground.n})")

    m = F.m
    value = F.value
    swaps = F._swaps
    S: set[int] = set()
    T = [()] * m      # sorted tuple per function
    base = [0.0] * m  # cached f_i(T_i)

    for _ in range(ell):
        best_total = 0.0
        best_x = None
        best_moves = None
        for x in cands:
            if x in S:
                continue
            moves = [_move(value, i, T[i], x, k, base[i])
                     if swaps is None or len(T[i]) < k
                     else _swap_move(F, i, T[i], x, base[i])
                     for i in range(m)]
            total = sum([g if r is None or g > 0 else 0.0 for r, g in moves])
            if total > best_total:  # strict: ties keep the lowest id
                best_total = total
                best_x = x
                best_moves = moves
        if best_x is None:
            break
        S.add(best_x)
        for i, (replaced, gain) in enumerate(best_moves):
            if gain > 0:
                T[i] = tuple(sorted([y for y in T[i] if y != replaced]
                                    + [best_x]))
                base[i] = value(i, T[i])

    return solution_from_sets(F, S, T, ell, k)

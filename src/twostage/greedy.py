"""Centralized swap-based greedy for the two-stage problem.

Runs for up to ell rounds; each round picks the candidate with the largest
total additive gain across all functions and applies the implied
insertion/swap to every per-function solution that benefits.  This is both
the standalone solver and the merge step of the distributed variants, so
determinism (lowest-id tie-break) matters.
"""

from __future__ import annotations

from typing import Iterable

from .core import (ObjectiveFamily, TwoStageSolution, _check_ids, _Sets,
                   check_budgets, solution_from_sets)
# replacement_greedy counts lambda_gain's clamp in _Sets.best; the name
# stays bound here because perfbench/tracer.py wraps greedy.lambda_gain, and
# test_every_traced_binding_is_an_own_attribute checks that it exists.
from .core import lambda_gain  # noqa: F401


def replacement_greedy(F: ObjectiveFamily, candidates: Iterable[int],
                       ell: int, k: int) -> TwoStageSolution:
    """Greedy two-stage solve restricted to ``candidates``.

    Stops early when no remaining candidate has positive total gain; adding
    such elements could never change any per-function solution.

    The per-function gain is ``lambda_gain``'s: the insertion gain below
    budget, the best-swap gain clamped at 0 at budget.  Each round's best
    candidate, the lowest id on a tie, is found by ``_Sets.best`` (in numpy
    block by block where F has a block kernel, with every eval still one
    counted ``value`` call) and applied with ``_Sets.add``.  The
    candidates' ids are checked (``_check_ids``) before any eval.
    """
    cands = list(candidates)  # a list: an unhashable id gets the id check
    if not cands:
        raise ValueError("candidate set must be non-empty")
    check_budgets(ell, k)
    _check_ids(cands, F.ground.n)
    cands = sorted(set(cands))

    sets = _Sets(F.m, k)
    for _ in range(ell):
        best = sets.best(F, cands)
        if best is None:
            break
        sets.add(F, *best)

    return solution_from_sets(F, sets.S, sets.T, ell, k)

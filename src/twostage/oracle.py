"""Exhaustive brute-force solver: the ground truth for approximation tests.

Enumerates every summary of size <= ell and, inside each, every
per-function subset of size <= k.  Deliberately refuses instances whose
evaluation count would exceed a work budget instead of silently
approximating.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .core import ObjectiveFamily, TwoStageSolution, check_budgets

DEFAULT_BUDGET = 10 ** 8


class OracleBudgetError(RuntimeError):
    """The requested instance needs more evaluations than the oracle allows."""


def estimate_work(n: int, ell: int, k: int, m: int) -> int:
    """Number of set evaluations a full enumeration would perform."""
    total = 0
    for s in range(min(ell, n) + 1):
        outer = comb(n, s)
        inner = m * sum(comb(s, t) for t in range(1, min(k, s) + 1))
        total += outer * inner
    return total


def brute_force_opt(F: ObjectiveFamily, ell: int, k: int,
                    max_evaluations: int = DEFAULT_BUDGET) -> TwoStageSolution:
    """Exact optimum over all feasible (summary, per-function) choices.

    Ties go to the first maximizer in the enumeration order (summaries by
    size then lexicographically), so results are deterministic.  The
    solution is built from the enumeration's own values; evaluating it again
    would add evals beyond ``estimate_work``.  Raises, before any eval,
    ``TypeError`` unless ``max_evaluations`` is a number, and
    ``OracleBudgetError`` unless the work fits in it.
    """
    check_budgets(ell, k)
    work = estimate_work(F.ground.n, ell, k, F.m)
    try:
        fits = work <= max_evaluations
    except TypeError:
        raise TypeError(f"budget must be a number, got {max_evaluations!r}"
                        ) from None
    if not fits:  # a NaN budget is refused too
        raise OracleBudgetError(
            f"instance needs ~{work} evaluations, above the budget of "
            f"{max_evaluations}; refusing rather than approximating")

    m = F.m
    best = None
    for s in range(min(ell, F.ground.n) + 1):
        for summary in combinations(F.ground.elements(), s):
            total = 0.0
            chosen = []
            for i in range(m):
                fbest = 0.0  # empty set is always feasible and worth 0
                tbest = ()
                for t in range(1, min(k, s) + 1):
                    for sub in combinations(summary, t):
                        v = F.value(i, sub)
                        if v > fbest:
                            fbest = v
                            tbest = sub
                total += fbest
                chosen.append(tbest)
            value = total / m
            if best is None or value > best.value:
                best = TwoStageSolution(
                    frozenset(summary), tuple(frozenset(t) for t in chosen),
                    value, ell, k)
    return best

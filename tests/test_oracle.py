from itertools import combinations

import pytest

from twostage.objectives import make_synthetic
from twostage.oracle import (OracleBudgetError, brute_force_opt,
                             estimate_work)

from conftest import modular_family


def test_worked_instance(worked_instance):
    res = brute_force_opt(worked_instance, ell=2, k=1)
    assert res.value == 3.0
    assert sorted(res.summary) == [0, 2]
    assert res.per_function == (frozenset({0}), frozenset({2}))


def test_unconstrained_budgets_attain_full_value():
    F = make_synthetic("coverage", 6, 2, seed=0)
    res = brute_force_opt(F, ell=6, k=6)
    expected = sum(F.value(i, range(6)) for i in range(2)) / 2
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_unconstrained_budgets_take_everything_when_gains_are_strict():
    F = modular_family((1.0, 2.0, 3.0, 4.0))
    res = brute_force_opt(F, ell=4, k=4)
    assert sorted(res.summary) == [0, 1, 2, 3]
    assert res.per_function == (frozenset({0, 1, 2, 3}),)


def test_single_function_collapse():
    F = make_synthetic("coverage", 8, 1, seed=3)
    res = brute_force_opt(F, ell=3, k=3)
    best = max(F.value(0, sub) for s in range(4)
               for sub in combinations(range(8), s))
    assert res.value == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("ell,k", [(2, 3), (0, 1), (2, 0)])
def test_bad_budgets_raise_before_any_eval(ell, k):
    # k > ell is refused like every other solver refuses it
    F = make_synthetic("modular", 5, 2, seed=0)
    before = F.evals
    with pytest.raises(ValueError, match="budget"):
        brute_force_opt(F, ell, k)
    assert F.evals == before


def test_budget_refusal_is_loud():
    F = make_synthetic("modular", 30, 2, seed=0)
    with pytest.raises(OracleBudgetError):
        brute_force_opt(F, ell=15, k=10, max_evaluations=1000)


def test_estimate_work_is_exact():
    F = make_synthetic("modular", 7, 2, seed=1)
    before = F.evals
    brute_force_opt(F, ell=3, k=2)
    assert F.evals - before == estimate_work(7, 3, 2, 2)


def test_budgets_above_n_stop_at_n():
    # summary sizes past n enumerate nothing, so neither loop visits them
    F = make_synthetic("modular", 5, 2, seed=0)
    before = F.evals
    res = brute_force_opt(F, 10 ** 6, 10 ** 6)
    assert res.summary == frozenset(range(5))
    assert F.evals - before == estimate_work(5, 10 ** 6, 10 ** 6, 2) == 422


def test_monotone_in_budgets():
    F = make_synthetic("coverage", 8, 2, seed=5)
    v = {(ell, k): brute_force_opt(F, ell, k).value
         for ell in (2, 3) for k in (1, 2)}
    assert v[(2, 1)] <= v[(3, 1)] + 1e-9
    assert v[(2, 1)] <= v[(2, 2)] + 1e-9
    assert v[(3, 1)] <= v[(3, 2)] + 1e-9


def test_singleton_bounds_bracket_opt():
    for seed in range(5):
        F = make_synthetic("coverage", 8, 3, seed=seed)
        ell = 3
        delta = max(F.singleton_average(u) for u in range(8))
        opt = brute_force_opt(F, ell, 2).value
        assert delta - 1e-9 <= opt <= ell * delta + 1e-9


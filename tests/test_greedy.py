import numpy as np
import pytest

from twostage.core import NonFiniteValueError
from twostage.greedy import replacement_greedy
from twostage.objectives import make_synthetic
from twostage.oracle import brute_force_opt

from conftest import NON_FINITE, modular_family, poisoned_family

GREEDY_RATIO = 0.5 * (1.0 - np.exp(-2.0))  # about 0.4323


def test_worked_instance(worked_instance):
    sol = replacement_greedy(worked_instance, range(3), ell=2, k=1)
    assert sorted(sol.summary) == [0, 2]
    assert sol.per_function == (frozenset({0}), frozenset({2}))
    assert sol.value == 3.0


def test_budgets_covering_everything_select_everything():
    F = modular_family((1.0, 2.0, 3.0, 4.0))
    sol = replacement_greedy(F, range(4), ell=4, k=4)
    assert sol.summary == frozenset(range(4))
    assert sol.per_function[0] == frozenset(range(4))


def test_bad_budgets():
    F = modular_family((1.0, 2.0))
    with pytest.raises(ValueError):
        replacement_greedy(F, range(2), ell=0, k=1)
    with pytest.raises(ValueError):
        replacement_greedy(F, range(2), ell=1, k=2)
    with pytest.raises(ValueError):
        replacement_greedy(F, [], ell=1, k=1)


def test_zero_gain_stops_early():
    F = modular_family((0.0, 0.0, 0.0))
    sol = replacement_greedy(F, range(3), ell=2, k=1)
    assert sol.summary == frozenset()
    assert sol.value == 0.0


def test_candidate_enumeration_order_is_irrelevant():
    F = make_synthetic("coverage", 10, 3, seed=8)
    a = replacement_greedy(F, range(10), 3, 2)
    b = replacement_greedy(F, reversed(range(10)), 3, 2)
    assert a.summary == b.summary
    assert a.per_function == b.per_function
    assert a.value == b.value


def test_value_non_decreasing_in_summary_budget():
    F = make_synthetic("coverage", 10, 3, seed=4)
    values = [replacement_greedy(F, range(10), ell, 2).value
              for ell in range(2, 6)]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("kind", ["modular", "coverage", "facility"])
def test_guarantee_on_random_instances(kind):
    for seed in range(10):
        F = make_synthetic(kind, 10, 3, seed=seed)
        opt = brute_force_opt(F, 3, 2).value
        sol = replacement_greedy(F, range(10), 3, 2)
        assert sol.value >= GREEDY_RATIO * opt - 1e-9
        assert sol.value <= opt + 1e-9


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_objective_raises(bad):
    with pytest.raises(NonFiniteValueError, match="function 1"):
        replacement_greedy(poisoned_family(bad), range(6), ell=3, k=2)

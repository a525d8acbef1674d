import numpy as np
import pytest

from twostage.core import NonFiniteValueError, ObjectiveFamily
from twostage.greedy import replacement_greedy
from twostage.objectives import exemplar_family, make_synthetic
from twostage.oracle import brute_force_opt

from conftest import (NON_FINITE, float_features, kernel_counted,
                      modular_family, poisoned_family)

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


def scalar_block(F):
    """A block kernel for F computed set by set from its own objectives."""
    def block(i, key, xs, swap):
        f = F._functions[i]
        if not swap:
            return np.array([f(tuple(sorted(key + (x,)))) for x in xs])
        return np.array([[f(tuple(sorted(key[:j] + key[j + 1:] + (x,))))
                          for j in range(len(key))] for x in xs])
    return block


class TestSwapProbeMemo:
    def test_at_budget_probes_are_served_by_the_kernel(self):
        for F in (make_synthetic("facility", 12, 3, seed=2),
                  exemplar_family(float_features(12, 3, 2), 3)):
            G, scalar_calls = kernel_counted(F)
            K, calls = kernel_counted(F)
            K._block = F._block
            runs = [(replacement_greedy(fam, range(12), 4, 2), fam.evals)
                    for fam in (K, G)]
            assert runs[0] == runs[1]
            assert calls[0] < scalar_calls[0]
            assert K._memo is None

    def test_no_memo_is_left_open_after_the_kernel_raises(self):
        F = make_synthetic("facility", 12, 3, seed=2)

        def broken(i, key, xs, swap):
            raise RuntimeError("block kernel failed")
        F._block = broken
        with pytest.raises(RuntimeError, match="block kernel failed"):
            replacement_greedy(F, range(12), 4, 2)
        assert F._memo is None

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_no_memo_is_left_open_after_a_probe_raises(self, bad):
        # f_1 is modular but non-finite on sets holding both 1 and 3.  Greedy
        # takes 0, then 1; only round 3's swap of 3 for 0 meets {1, 3}, so
        # the kernel's value is not stored and value() raises mid-probe.
        def f1(ids):
            return bad if {1, 3} <= set(ids) else sum((10.0, 5.0, 0.0, 1.0)[e]
                                                      for e in ids)
        F = modular_family((10.0, 5.0, 0.0, 0.0))
        F = ObjectiveFamily(F.ground, [F._functions[0], f1])
        F._block = scalar_block(F)
        with pytest.raises(NonFiniteValueError, match=r"function 1 .*\(1, 3\)"):
            replacement_greedy(F, range(4), ell=3, k=2)
        assert F._memo is None

    def test_kernel_values_are_normalised_by_the_offsets(self):
        # every shifted f_i is 7 on the empty set, so value() subtracts 7;
        # served swap values must be shifted the same way
        base = make_synthetic("coverage", 10, 3, seed=6)
        shifted = [lambda ids, f=f: 7.0 + f(ids) for f in base._functions]
        F = ObjectiveFamily(base.ground, shifted)
        G = ObjectiveFamily(base.ground, shifted)
        F._block = scalar_block(F)
        assert F._offsets == [7.0] * 3
        got = (replacement_greedy(F, range(10), 4, 2), F.evals)
        assert got == (replacement_greedy(G, range(10), 4, 2), G.evals)

    def test_non_finite_kernel_values_are_evaluated_again(self):
        # a kernel value that is not finite is never served: value() calls
        # f_i, so the run still equals the scalar one
        F = make_synthetic("facility", 12, 3, seed=4)
        G = ObjectiveFamily(F.ground, F._functions)
        block = F._block
        F._block = lambda i, key, xs, swap: block(i, key, xs, swap) * (
            np.nan if i == 2 else 1.0)
        got = (replacement_greedy(F, range(12), 4, 2), F.evals)
        assert got == (replacement_greedy(G, range(12), 4, 2), G.evals)
        assert F._memo is None

from unittest import mock

import numpy as np
import pytest

from twostage.core import (BLOCK_FLOATS, NonFiniteValueError, ObjectiveFamily,
                           _Sets, marginal)
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


def test_kernel_probes_open_no_memo_scope():
    # kernel values reach value() as its served argument, never a memo
    for F in (make_synthetic("facility", 12, 3, seed=2),
              exemplar_family(float_features(12, 3, 2), 3)):
        G = ObjectiveFamily(F.ground, F._functions)
        value = ObjectiveFamily.value
        memos, served = [], []

        def spy(self, *args):
            memos.append(self._memo)
            served.append(len(args) == 3)
            return value(self, *args)
        with mock.patch.object(ObjectiveFamily, "_memo_scope") as scope, \
                mock.patch.object(ObjectiveFamily, "value", spy):
            got = (replacement_greedy(F, range(12), 4, 2), F.evals)
        assert scope.call_count == 0
        assert any(served) and all(memo is None for memo in memos)
        assert got == (replacement_greedy(G, range(12), 4, 2), G.evals)


def block_spy(F):
    """Record each ``F._block(i, key, xs, swap)`` call as (i, key, xs)."""
    kernel = F._block
    calls = []

    def spy(i, key, xs, swap):
        calls.append((i, key, list(xs)))
        return kernel(i, key, xs, swap)
    F._block = spy
    return calls


def greedy_rounds(F, cands, ell, k):
    """replacement_greedy(F, cands, ell, k) with the kernel calls of each
    round, and per round the S and T it started from."""
    calls = block_spy(F)
    starts = []
    probes = _Sets.probes

    def spy(self, F, xs, k, step=None):
        starts.append((len(calls), set(self.S), list(self.T)))
        return probes(self, F, xs, k, step)

    with mock.patch.object(_Sets, "probes", spy):
        sol = replacement_greedy(F, cands, ell, k)
    ends = [start for start, *_ in starts[1:]] + [len(calls)]
    return sol, [(calls[start:end], S, T)
                 for (start, S, T), end in zip(starts, ends)]


class TestKeptBlock:
    """When a round's candidates fit in one block, greedy keeps the block
    and asks the kernel again only for the functions whose T_i changed."""

    def test_later_rounds_refill_only_changed_functions(self):
        E = exemplar_family(float_features(14, 4, 3), 4)
        G, scalar_calls = kernel_counted(E)
        F, calls = kernel_counted(E)
        F._block, F._table_floats = E._block, E._table_floats
        k = 2
        assert 14 <= max(BLOCK_FLOATS, F._table_floats // 8) // (F.m * k)
        sol, rounds = greedy_rounds(F, range(14), 5, k)
        assert (sol, F.evals) == (replacement_greedy(G, range(14), 5, k),
                                  G.evals)
        assert calls[0] < scalar_calls[0]
        assert len(rounds) >= 3
        previous = [None] * F.m  # no column is filled before round 1
        for calls, S, T in rounds:
            live = [x for x in range(14) if x not in S]
            changed = [i for i in range(F.m) if T[i] != previous[i]]
            assert calls == [(i, T[i], live) for i in changed]
            previous = T
        # round 1 fills every function; later rounds refill fewer
        assert len(rounds[0][0]) == F.m
        assert sum(len(calls) for calls, *_ in rounds[1:]) < \
            F.m * (len(rounds) - 1)

    def test_several_blocks_per_round_are_all_filled_every_round(self):
        F = make_synthetic("facility", 100, 10, seed=3)
        G = ObjectiveFamily(F.ground, F._functions)
        k = 5
        size = max(BLOCK_FLOATS, F._table_floats // 8) // (F.m * k)
        assert size == 25  # an eighth of the 100 x 10 tables per function
        sol, rounds = greedy_rounds(F, range(100), 6, k)
        assert (sol, F.evals) == (replacement_greedy(G, range(100), 6, k),
                                  G.evals)
        for calls, S, T in rounds:
            live = [x for x in range(100) if x not in S]
            blocks = [live[s:s + size] for s in range(0, len(live), size)]
            assert len(blocks) > 1
            assert calls == [(i, T[i], xs) for xs in blocks
                             for i in range(F.m)]

    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_a_kernel_that_raises_mid_refill_leaves_no_stale_column(
            self, fail_at):
        F = exemplar_family(float_features(14, 4, 3), 4)
        G = ObjectiveFamily(F.ground, F._functions)
        sets, ref = _Sets(F.m), _Sets(G.m)
        cands, k = list(range(14)), 2
        for s, fam in ((sets, F), (ref, G)):
            moves = list(s.probes(fam, cands, k))
            s.add(fam, *max(moves, key=lambda move: sum(move[2])))
        changed = [i for i in range(F.m) if sets.T[i]]
        assert len(changed) >= 2 and sets.T == ref.T
        kernel = F._block
        calls = []

        def failing(i, key, xs, swap):
            calls.append(i)
            if len(calls) > fail_at:
                raise RuntimeError("block kernel failed")
            return kernel(i, key, xs, swap)
        F._block = failing
        with pytest.raises(RuntimeError, match="block kernel failed"):
            list(sets.probes(F, cands, k))
        assert calls == changed[:fail_at + 1]
        F._block = kernel
        assert list(sets.probes(F, cands, k)) == list(ref.probes(G, cands, k))
        assert F.evals == G.evals and F._memo is None

    def test_a_round_with_every_candidate_in_s_calls_no_kernel(self):
        F = make_synthetic("coverage", 8, 3, seed=1)
        F._block = scalar_block(F)
        calls = block_spy(F)
        sets = _Sets(F.m)
        for x in (0, 5):
            sets.add(F, *next(sets.probes(F, [x], 2)))
        calls.clear()
        assert list(sets.probes(F, [5, 0, 5], 2)) == []
        assert calls == []

    def test_a_probe_of_one_element_leaves_the_kept_block(self):
        F = exemplar_family(float_features(14, 4, 3), 4)
        calls = block_spy(F)
        sets = _Sets(F.m)
        moves = list(sets.probes(F, range(10), 2))
        kept = sets.kept
        calls.clear()
        for x in range(10, 14):
            sets.probe(F, x, 2)
        assert sets.kept is kept and calls == []
        assert list(sets.probes(F, range(10), 2)) == moves and calls == []


def id_families():
    return [make_synthetic("modular", 6, 2, seed=1),
            make_synthetic("coverage", 6, 2, seed=1),
            make_synthetic("facility", 6, 2, seed=1),
            exemplar_family(float_features(6, 2, 1), 2)]


class TestElementIds:
    @pytest.mark.parametrize("F", id_families())
    def test_non_integer_ids_raise_type_error(self, F):
        with pytest.raises(TypeError, match="element ids must be integers"):
            replacement_greedy(F, [0.5, 1.5, 2.5], 2, 1)
        with pytest.raises(TypeError, match="element ids must be integers"):
            F.value(0, (2.5,))
        # 2.0 == 2, so only the candidate's own check refuses it
        with pytest.raises(TypeError, match="element ids must be integers"):
            marginal(F, 0, 2.0, [2])

    @pytest.mark.parametrize("F", id_families())
    def test_numpy_integer_ids_equal_python_ints(self, F):
        runs = []
        for ids in (range(6), np.arange(6), np.arange(6, dtype=np.int32)):
            before = F.evals
            runs.append((replacement_greedy(F, ids, 3, 2), F.evals - before))
        assert runs[1] == runs[0] and runs[2] == runs[0]

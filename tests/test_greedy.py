from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import core
from twostage.core import (BLOCK_FLOATS, NonFiniteValueError, ObjectiveFamily,
                           _Sets, marginal)
from twostage.greedy import replacement_greedy
from twostage.objectives import (Point, Region, exemplar_family,
                                 facility_family, make_synthetic)
from twostage.oracle import brute_force_opt

from conftest import (NON_FINITE, block_spy, edited_kernel, float_features,
                      kernel_counted, modular_family, poisoned_family,
                      scalar_block)

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


def probe_bases(key, k):
    """The sets a probe against the sorted ``key`` at budget k adds its
    candidate to: ``key`` below budget, ``key`` less each member at it."""
    if len(key) < k:
        return [key]
    return [key[:j] + key[j + 1:] for j in range(len(key))]


class TestSwapProbeKernel:
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

    def test_a_kernel_error_is_raised(self):
        F = make_synthetic("facility", 12, 3, seed=2)

        def broken(i, bases):
            raise RuntimeError("block kernel failed")
        F._block = broken
        with pytest.raises(RuntimeError, match="block kernel failed"):
            replacement_greedy(F, range(12), 4, 2)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_a_non_finite_value_raises_mid_probe(self, bad):
        # f_1 is modular but non-finite on sets holding both 1 and 3.  Greedy
        # takes 0, then 1; only round 3's swap of 3 for 0 meets {1, 3}, so
        # value() is not served the kernel's value and raises mid-probe.
        def f1(ids):
            return bad if {1, 3} <= set(ids) else sum((10.0, 5.0, 0.0, 1.0)[e]
                                                      for e in ids)
        F = modular_family((10.0, 5.0, 0.0, 0.0))
        F = ObjectiveFamily(F.ground, [F._functions[0], f1])
        F._block = scalar_block(F)
        with pytest.raises(NonFiniteValueError, match=r"function 1 .*\(1, 3\)"):
            replacement_greedy(F, range(4), ell=3, k=2)

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

        def poison(i, bases, xs, vals):
            if i == 2:
                vals *= np.nan
        F._block = edited_kernel(F._block, poison)
        got = (replacement_greedy(F, range(12), 4, 2), F.evals)
        assert got == (replacement_greedy(G, range(12), 4, 2), G.evals)


def test_kernel_values_reach_value_as_served():
    for F in (make_synthetic("facility", 12, 3, seed=2),
              exemplar_family(float_features(12, 3, 2), 3)):
        G = ObjectiveFamily(F.ground, F._functions)
        value = ObjectiveFamily.value
        served = []

        def spy(self, *args):
            served.append(len(args) == 3)
            return value(self, *args)
        with mock.patch.object(ObjectiveFamily, "value", spy):
            got = (replacement_greedy(F, range(12), 4, 2), F.evals)
        assert any(served)
        assert got == (replacement_greedy(G, range(12), 4, 2), G.evals)


@contextmanager
def value_calls():
    """Record every ``ObjectiveFamily.value`` call as ``(i, ids, v)``: ids
    as passed (sorted, if not a tuple) and v as returned."""
    value = ObjectiveFamily.value
    calls = []

    def spy(self, i, ids, served=None):
        v = value(self, i, ids, served)
        calls.append((i, ids if type(ids) is tuple else tuple(sorted(ids)), v))
        return v

    with mock.patch.object(ObjectiveFamily, "value", spy):
        yield calls


def greedy_rounds(F, cands, ell, k):
    """replacement_greedy(F, cands, ell, k) with, per round, the kernel's
    base reductions ``(i, bases)`` and fills ``(i, bases, xs)``
    (``block_spy``), and the S and T it started from."""
    reductions, fills = block_spy(F)
    starts = []
    best = _Sets.best

    def spy(self, F, xs):
        starts.append((len(reductions), len(fills), set(self.S),
                       list(self.T)))
        return best(self, F, xs)

    with mock.patch.object(_Sets, "best", spy):
        sol = replacement_greedy(F, cands, ell, k)
    ends = [start[:2] for start in starts[1:]] + [(len(reductions),
                                                   len(fills))]
    return sol, [(reductions[r:r_end], fills[f:f_end], S, T)
                 for (r, f, S, T), (r_end, f_end) in zip(starts, ends)]


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
        for reductions, fills, S, T in rounds:
            live = [x for x in range(14) if x not in S]
            changed = [i for i in range(F.m) if T[i] != previous[i]]
            # one block: each base reduction's fill is made at once
            assert reductions == [(i, probe_bases(T[i], k)) for i in changed]
            assert fills == [(i, probe_bases(T[i], k), live)
                             for i in changed]
            previous = T
        # round 1 fills every function; later rounds refill fewer
        assert len(rounds[0][1]) == F.m
        assert sum(len(fills) for _, fills, *_ in rounds[1:]) < \
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
        for reductions, fills, S, T in rounds:
            live = [x for x in range(100) if x not in S]
            blocks = [live[s:s + size] for s in range(0, len(live), size)]
            assert len(blocks) > 1
            # each function's bases are reduced once per round, at the
            # first block, and that fill serves every block of the round
            assert reductions == [(i, probe_bases(T[i], k))
                                  for i in range(F.m)]
            assert fills == [(i, probe_bases(T[i], k), xs) for xs in blocks
                             for i in range(F.m)]

    @pytest.mark.parametrize("fail_at", [0, 1])
    def test_a_kernel_that_raises_mid_refill_leaves_no_stale_column(
            self, fail_at):
        F = exemplar_family(float_features(14, 4, 3), 4)
        G = ObjectiveFamily(F.ground, F._functions)
        cands, k = list(range(14)), 2
        sets, ref = _Sets(F.m, k), _Sets(G.m, k)
        for s, fam in ((sets, F), (ref, G)):
            s.add(fam, *s.best(fam, cands))
        changed = [i for i in range(F.m) if sets.T[i]]
        assert len(changed) >= 2 and sets.T == ref.T
        kernel = F._block
        calls = []

        def failing(i, bases):
            calls.append(i)
            if len(calls) <= fail_at:
                return kernel(i, bases)

            def fill(xs, out=None):
                # a fill that writes part of its column, then raises
                if out is not None:
                    out[:1] = 1e9
                raise RuntimeError("block kernel failed")
            return fill
        F._block = failing
        with pytest.raises(RuntimeError, match="block kernel failed"):
            sets.best(F, cands)
        assert calls == changed[:fail_at + 1]
        F._block = kernel
        # every value the block serves is the one computed without it
        with value_calls() as got:
            move = sets.best(F, cands)
        with value_calls() as want:
            assert move == ref.best(G, cands)
        assert got == want and F.evals == G.evals

    def test_a_round_with_every_candidate_in_s_calls_no_kernel(self):
        F = make_synthetic("coverage", 8, 3, seed=1)
        F._block = scalar_block(F)
        reductions, fills = block_spy(F)
        sets = _Sets(F.m, 2)
        for x in (0, 5):
            sets.add(F, *sets.best(F, [x]))
        reductions.clear()
        fills.clear()
        assert sets.best(F, [5, 0, 5]) is None
        assert reductions == fills == []

    def test_a_probe_of_one_element_leaves_the_kept_block(self):
        F = exemplar_family(float_features(14, 4, 3), 4)
        reductions, fills = block_spy(F)
        sets = _Sets(F.m, 2)
        move = sets.best(F, range(10))
        kept = sets.kept
        assert kept is not None
        reductions.clear()
        fills.clear()
        for x in range(10, 14):
            sets.probe(F, x)
        assert sets.kept is kept and reductions == fills == []
        assert sets.best(F, range(10)) == move
        assert reductions == fills == []


def test_repeated_candidates_are_probed_once_on_both_paths():
    F = make_synthetic("facility", 20, 3, seed=0)
    G = ObjectiveFamily(F.ground, F._functions)
    assert F._block is not None and G._block is None
    runs = []
    for fam in (F, G):
        sets, rounds = _Sets(fam.m, 1), []
        for first in (5, 9):  # empty sets, then every T_i at budget
            with value_calls() as calls:
                rounds.append((sets.best(fam, [3, 1, 3]), calls))
            sets.add(fam, *next(sets.probes(fam, [first])))
        runs.append((rounds, fam.evals))
    assert runs[0] == runs[1]
    # k = 1: one set per function and candidate, each x once
    assert [[ids[-1] for _, ids, _ in calls] for _, calls in runs[0][0]] \
        == [[3, 3, 3, 1, 1, 1]] * 2
    assert [x for x, *_ in _Sets(G.m, 1).probes(G, [3, 1, 3])] == [3, 1]


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


def tie_family(regions, places=4):
    """Facility location on ``places`` positions 10 apart, two points at
    each: ids 2a and 2a + 1 sit at position a.  Every convenience is
    exactly 1.0 or 0.0, so f_i(T) counts the members of region i (given as
    positions, repeats allowed) at a position of T, and duplicates tie."""
    spots = [Point(10.0 * a, 0.0) for a in range(places)]
    return facility_family([p for p in spots for _ in range(2)],
                           [Region(tuple(spots[a] for a in region))
                            for region in regions])


KERNEL_FAMILIES = {
    "facility": lambda n, m, seed: make_synthetic("facility", n, m, seed),
    "exemplar": lambda n, m, seed: exemplar_family(
        float_features(n, m, seed), m),
    "ties": lambda n, m, seed: tie_family(
        np.random.default_rng(seed).integers(0, -(-n // 2), (m, 5)).tolist(),
        -(-n // 2)),
}


def greedy_run(F, cands, ell, k):
    """(solution or exception type, evals, served ``(i, ids, v)`` calls) of
    replacement_greedy on F."""
    before = F.evals
    with value_calls() as calls:
        try:
            result = replacement_greedy(F, cands, ell, k)
        except NonFiniteValueError:
            result = NonFiniteValueError
    return result, F.evals - before, calls


class TestBlockResolver:
    """``_Sets.best`` on a family with a block kernel finds each block's
    best candidate in numpy and serves every eval from the block: its
    solutions, evals and served calls equal those of the same objectives
    with no kernel, probed one candidate at a time."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(sorted(KERNEL_FAMILIES)),
           seed=st.integers(0, 10 ** 6), data=st.data())
    def test_kernel_path_is_bit_identical_to_the_scalar_path(self, kind,
                                                            seed, data):
        n = data.draw(st.integers(2, 24))
        m = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 4))
        ell = data.draw(st.integers(k, k + 4))
        cands = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=2 * n))
        F = KERNEL_FAMILIES[kind](n, m, seed)
        G = ObjectiveFamily(F.ground, F._functions)
        assert F._block is not None and G._block is None
        # one row per block, a few, or every candidate in one kept block
        F._table_floats = 0
        floats = data.draw(st.sampled_from([1, 3 * F.m * k, BLOCK_FLOATS]))
        with mock.patch.object(core, "BLOCK_FLOATS", floats):
            got = greedy_run(F, cands, ell, k)
        assert got == greedy_run(G, cands, ell, k)

    @pytest.mark.parametrize("kind", sorted(KERNEL_FAMILIES))
    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_runs_equal_the_scalar_path(self, kind, seed):
        F = KERNEL_FAMILIES[kind](40, 5, seed)
        G = ObjectiveFamily(F.ground, F._functions)
        got = greedy_run(F, range(40), 8, 3)
        assert got == greedy_run(G, range(40), 8, 3)
        assert got[1] == len(got[2]) > 0

    def test_ties_go_to_the_lowest_replaced_y_and_candidate(self):
        # T_0 = {0, 2} covers positions 0 and 1; 4 and 5 at position 2
        # cover two members, so swapping either of 0 and 2 for either of
        # 4 and 5 gains 1.0: the move is 4 for 0
        F = tie_family([[0, 1, 2, 2]])
        G = ObjectiveFamily(F.ground, F._functions)
        moves = []
        for fam in (F, G):
            sets = _Sets(1, 2)
            for x in (0, 2):
                sets.add(fam, *next(sets.probes(fam, [x])))
            with value_calls() as calls:
                moves.append((sets.best(fam, [1, 3, 4, 5, 6]), calls))
        assert moves[0] == moves[1]
        assert moves[0][0] == (4, [0], [1.0], [3.0])
        # 4 first (two members), then 0 (one), and no swap gains
        sol = replacement_greedy(F, range(8), 3, 2)
        assert sol.per_function == (frozenset({0, 4}),)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_a_non_finite_value_mid_block_raises_at_the_scalar_eval(self,
                                                                     bad):
        # f_p and its kernel are non-finite on sets holding both a, greedy's
        # first pick, and b; round 2's one block meets {a, b} at b's row,
        # after the rows before it
        E = make_synthetic("facility", 20, 3, seed=5)
        first = replacement_greedy(E, range(20), 1, 1)
        (a,) = first.summary
        p = next(i for i, t in enumerate(first.per_function) if a in t)
        b = 17 if a != 17 else 18

        def poisoned(ids, f=E._functions[p]):
            return bad if {a, b} <= set(ids) else f(ids)

        def poison(i, bases, xs, vals):
            for r, x in enumerate(xs):
                for j, base in enumerate(bases):
                    if i == p and {a, b} <= set(base + (x,)):
                        vals[r, j] = bad

        functions = list(E._functions)
        functions[p] = poisoned
        F = ObjectiveFamily(E.ground, functions)
        F._block = edited_kernel(E._block, poison)
        F._table_floats = E._table_floats
        G = ObjectiveFamily(E.ground, functions)
        got = greedy_run(F, range(20), 4, 2)
        assert got[0] is NonFiniteValueError
        assert got == greedy_run(G, range(20), 4, 2)

    @pytest.mark.parametrize("floats", [1, 3 * 4 * 3, BLOCK_FLOATS])
    def test_served_plan_mixes_insertions_and_swaps(self, floats):
        # in two rounds some T_i are below budget (one base each) and some
        # at it (k bases), so the flattened block's columns in a round's
        # served plan do not all follow from one base count
        F = exemplar_family(float_features(24, 4, 0), 4)
        G = ObjectiveFamily(F.ground, F._functions)
        k, sizes = 3, []
        best = _Sets.best

        def spy(self, F, xs):
            sizes.append({len(t) for t in self.T})
            return best(self, F, xs)

        # one row per block, a few, or every candidate in one kept block
        F._table_floats = 0
        with mock.patch.object(core, "BLOCK_FLOATS", floats), \
                mock.patch.object(_Sets, "best", spy):
            got = greedy_run(F, range(24), 8, k)
        assert sum(k in s and len(s) > 1 for s in sizes) == 2
        assert got == greedy_run(G, range(24), 8, k)
        assert got[1] == len(got[2]) > 0

    def test_a_stale_non_finite_row_is_not_read_in_later_rounds(self):
        # the kernel's first call gives one NaN, in the row of a, the
        # candidate greedy takes in round 1.  Round 1 probes every
        # candidate; the later rounds keep the block and a's stale row, but
        # probe one candidate each
        E = make_synthetic("facility", 20, 3, seed=5)
        (a,) = replacement_greedy(E, range(20), 1, 1).summary
        poisoned = []

        def poison(i, bases, xs, vals):
            if not poisoned:
                poisoned.append(i)
                vals[xs.index(a), 0] = np.nan

        F = ObjectiveFamily(E.ground, E._functions)
        F._block = edited_kernel(E._block, poison)
        F._table_floats = E._table_floats
        G = ObjectiveFamily(E.ground, E._functions)
        rounds = []
        best, probe = _Sets.best, _Sets.probe

        def spy_best(self, F, xs):
            rounds.append([])
            return best(self, F, xs)

        def spy_probe(self, F, x, *args):
            rounds[-1].append(x)
            return probe(self, F, x, *args)

        with mock.patch.object(_Sets, "best", spy_best), \
                mock.patch.object(_Sets, "probe", spy_probe):
            got = greedy_run(F, range(20), 4, 2)
        assert poisoned and len(rounds) == 4
        assert [len(xs) for xs in rounds] == [20, 1, 1, 1]
        assert a in got[0].summary
        assert got == greedy_run(G, range(20), 4, 2)

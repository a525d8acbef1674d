import gc
import inspect
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import cli, distributed, oracle, streaming
from twostage.core import NonFiniteValueError, evaluate_solution
from twostage.distributed import distributed_fast, pseudo_streaming
from twostage.objectives import exemplar_family, make_synthetic
from twostage.oracle import brute_force_opt
from twostage.streaming import (MAX_INSTANCE_SLOTS, MAX_INSTANCES,
                                InstanceBudgetError, StreamState,
                                ThresholdManager, exchange, run_know_opt,
                                run_streaming)

from conftest import (NON_FINITE, float_features, modular_family,
                      poisoned_family)


def fresh_state(F, ell, k, tau, alpha=1.0):
    return StreamState(F.m, ell, k, alpha, tau)


class TestExchange:
    def test_hand_trace(self, worked_instance):
        F = worked_instance
        state = fresh_state(F, ell=2, k=1, tau=0.25)

        assert exchange(F, 0, state)  # singleton gains (3, 1), avg 2
        assert state.T == [(0,), (0,)]

        assert exchange(F, 1, state)  # gains (0, 1), avg 0.5
        assert state.S == {0, 1}
        assert state.T == [(0,), (1,)]

        assert not exchange(F, 2, state)  # summary is full
        assert state.S == {0, 1}

    def test_rejection_leaves_state_untouched(self, worked_instance):
        F = worked_instance
        state = fresh_state(F, ell=2, k=1, tau=100.0)
        assert not exchange(F, 0, state)
        assert state.S == set() and state.T == [(), ()]

    def test_only_an_accepted_element_changes_the_group_token(
            self, worked_instance):
        F = worked_instance
        low, high = (fresh_state(F, ell=2, k=1, tau=t) for t in (0.25, 100.0))
        assert low.group is None and high.group is None  # empty: one group
        assert exchange(F, 0, low) and not exchange(F, 0, high)
        assert low.group is not None and high.group is None
        again = fresh_state(F, ell=2, k=1, tau=0.25)
        assert exchange(F, 1, again) and again.group is not low.group

    def test_duplicate_arrival_is_rejected(self, worked_instance):
        F = worked_instance
        state = fresh_state(F, ell=3, k=1, tau=0.25)
        assert exchange(F, 0, state)
        assert not exchange(F, 0, state)
        assert state.S == {0}


class TestKnowOpt:
    def test_hand_trace(self, worked_instance):
        sol = run_know_opt([0, 1, 2], worked_instance, opt=3.0, ell=2, k=1)
        assert sol.value == 2.5
        assert sol.value >= 3.0 / 6.0

    def test_unreachable_threshold_gives_empty_output(self, worked_instance):
        sol = run_know_opt([0, 1, 2], worked_instance, opt=1e9, ell=2, k=1)
        assert sol.summary == frozenset()
        assert sol.value == 0.0

    def test_rejects_nonpositive_opt(self, worked_instance):
        with pytest.raises(ValueError):
            run_know_opt([0], worked_instance, opt=0.0, ell=2, k=1)

    @pytest.mark.parametrize("opt", [float("nan"), float("inf")])
    def test_rejects_non_finite_opt_before_any_eval(self, opt):
        # a NaN threshold would accept every element, an infinite one none
        F = make_synthetic("modular", 6, 2, seed=0)
        before = F.evals
        with pytest.raises(ValueError, match="opt"):
            run_know_opt(range(6), F, opt=opt, ell=3, k=2)
        assert F.evals == before

    @pytest.mark.parametrize("ell,k", [(2, 0), (0, 1), (2, 3)])
    def test_rejects_bad_budgets(self, ell, k):
        F = make_synthetic("modular", 5, 2, seed=0)
        with pytest.raises(ValueError, match="budget"):
            run_know_opt(range(5), F, opt=1.0, ell=ell, k=k)

    @pytest.mark.parametrize("bad,error,match", [
        (10 ** 6, ValueError, "out of range"),
        (-5, ValueError, "out of range"),
        (2.5, TypeError, "integer")])
    def test_bad_ids_raise_also_after_the_summary_is_full(self, bad, error,
                                                          match):
        F = make_synthetic("modular", 10, 2, seed=0)
        stream = list(range(10))
        assert len(run_know_opt(stream, F, opt=0.1, ell=3, k=2).summary) == 3
        with pytest.raises(error, match=match):
            run_know_opt(stream + [bad], F, opt=0.1, ell=3, k=2)

    def test_guarantee_on_random_instances(self):
        for seed in range(10):
            F = make_synthetic("coverage", 10, 3, seed=seed)
            opt = brute_force_opt(F, 3, 2).value
            sol = run_know_opt(range(10), F, opt=opt, ell=3, k=2)
            assert sol.value >= opt / 6.0 - 1e-9


ALPHA_ENTRY_POINTS = {
    "manager": lambda F, stream, alpha: ThresholdManager(
        F, 0.5, 3, 2, alpha=alpha).run(stream),
    "know_opt": lambda F, stream, alpha: run_know_opt(
        stream, F, opt=1.0, ell=3, k=2, alpha=alpha),
    "pseudo": lambda F, stream, alpha: pseudo_streaming(
        stream, F, 0.5, 3, 2, alpha=alpha),
}


class TestAlpha:
    @pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("stream", [(), (0, 1, 2, 3)])
    def test_nonpositive_alpha_fails_before_any_eval(self, entry, alpha,
                                                     stream):
        F = make_synthetic("coverage", 6, 2, seed=0)
        before = F.evals
        with pytest.raises(ValueError, match="alpha"):
            ALPHA_ENTRY_POINTS[entry](F, list(stream), alpha)
        assert F.evals == before

    @pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
    def test_infinite_alpha_fails_before_any_eval(self, entry):
        # the bar alpha/k * f_i(T_i) is inf * 0.0 = NaN on empty sets, which
        # used to reject every element: 816 evals for an empty summary
        F = make_synthetic("coverage", 30, 3, seed=0)
        with pytest.raises(ValueError, match="alpha must be positive and "
                                             "finite"):
            ALPHA_ENTRY_POINTS[entry](F, list(range(30)), float("inf"))
        assert F.evals == 3  # the offsets only
        with pytest.raises(ValueError, match="alpha"):
            StreamState(2, 3, 2, float("inf"), 1.0)

    def test_fresh_state_rejects_nonpositive_alpha(self):
        for alpha in (0.0, float("nan")):
            with pytest.raises(ValueError, match="alpha"):
                StreamState(2, 3, 2, alpha, 1.0)


EPSILON_ENTRY_POINTS = {
    "manager": lambda F, epsilon: ThresholdManager(F, epsilon, 3, 2).run(
        range(F.ground.n)),
    "run_streaming": lambda F, epsilon: run_streaming(
        range(F.ground.n), F, epsilon, 3, 2),
    "fast": lambda F, epsilon: distributed_fast(F, 2, epsilon, 3, 2, seed=0),
}


@pytest.mark.parametrize("entry", sorted(EPSILON_ENTRY_POINTS))
# inf, and 1e308 at ell=3, overflow the grid's span (BETA + epsilon) * ell;
# 1e-17 leaves 1 + epsilon == 1, a grid with no steps
@pytest.mark.parametrize("epsilon", [float("nan"), 0.0, -1.0, float("inf"),
                                     1e308, 1e-17])
def test_bad_epsilon_fails_before_any_eval(entry, epsilon):
    F = make_synthetic("modular", 6, 2, seed=0)
    before = F.evals
    with pytest.raises(ValueError, match="epsilon must be positive"):
        EPSILON_ENTRY_POINTS[entry](F, epsilon)
    assert F.evals == before


def test_largest_epsilon_with_a_finite_grid_span_runs():
    # (BETA + 1e308) * ell is finite at ell=1 only
    F = make_synthetic("modular", 6, 2, seed=0)
    sol = ThresholdManager(F, 1e308, 1, 1).run(range(6)).best_solution()
    assert len(sol.summary) == 1
    with pytest.raises(ValueError, match="epsilon"):
        ThresholdManager(F, 1e308, 2, 1)


# the grid power above delta overflows, or the window's lower end
# delta / ((1 + epsilon) * beta * ell) underflows to 0
@pytest.mark.parametrize("weight,epsilon", [(1e250, 1e200), (1e-30, 1e300)])
def test_grid_outside_the_float_range_is_a_value_error(weight, epsilon):
    mgr = ThresholdManager(modular_family((weight, 0.0)), epsilon, 1, 1)
    with pytest.raises(ValueError, match="epsilon") as err:
        mgr.run(range(2))
    assert "delta" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(epsilon=st.floats(min_value=1e-3, max_value=10.0),
       ell=st.integers(min_value=1, max_value=50),
       weight=st.floats(min_value=1e-6, max_value=1e6))
def test_fixed_beta_always_leaves_a_live_instance(epsilon, ell, weight):
    # epsilon starts at 1e-3 because smaller grids hit MAX_INSTANCE_SLOTS at
    # ell=50 (TestAdmission covers that refusal)
    mgr = ThresholdManager(modular_family((0.0, weight)), epsilon, ell, 1)
    assert mgr.instance_bound() >= 2
    mgr.update_thresholds(0)  # singleton average 0: nothing to guess from yet
    assert mgr.instances == {}
    mgr.update_thresholds(1)
    assert 1 <= len(mgr.instances) <= mgr.instance_bound()


# The solver parameters that had one value in every caller are constants now.
FIXED_OPTIONS = {"beta", "elements", "max_retries"}
SOLVERS = [streaming.ThresholdManager, streaming.run_streaming,
           streaming.run_know_opt, distributed.pseudo_streaming,
           distributed.distributed_fast, distributed.replacement_distributed,
           oracle.brute_force_opt, cli.build_regions]


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda s: s.__name__)
def test_solver_signatures(solver):
    assert not FIXED_OPTIONS & set(inspect.signature(solver).parameters)


class TestThresholdManager:
    def test_active_grid_example(self):
        # delta lands at exactly 3; beta = (6+1)/(1+1) = 7/2 at epsilon=1,
        # so the window is [3/(2*7/2*2), 3] = [3/14, 3] -> powers of two
        F = modular_family((3.0, 0.0))
        mgr = ThresholdManager(F, epsilon=1.0, ell=2, k=1)
        mgr.update_thresholds(0)
        assert mgr.delta == 3.0
        taus = sorted(inst.tau for inst in mgr.instances.values())
        assert taus == [0.25, 0.5, 1.0, 2.0]

    def test_unchanged_delta_keeps_instances(self):
        F = modular_family((3.0, 1.0))
        mgr = ThresholdManager(F, epsilon=1.0, ell=2, k=1)
        mgr.update_thresholds(0)
        before = {l: id(inst) for l, inst in mgr.instances.items()}
        mgr.update_thresholds(1)  # smaller singleton, delta unchanged
        assert {l: id(inst) for l, inst in mgr.instances.items()} == before

    def test_first_element_creates_everything(self):
        F = modular_family((2.0, 1.0))
        mgr = ThresholdManager(F, epsilon=0.5, ell=3, k=2)
        assert mgr.instances == {}
        mgr.update_thresholds(0)
        assert len(mgr.instances) >= 1
        assert len(mgr.instances) <= mgr.instance_bound()

    def test_instance_count_bounded_throughout(self):
        F = make_synthetic("coverage", 12, 3, seed=7)
        mgr = ThresholdManager(F, epsilon=0.5, ell=4, k=2)
        for u in range(12):
            mgr.process(u)
            assert len(mgr.instances) <= mgr.instance_bound()

    def test_newly_created_instances_would_have_accepted_nothing(self):
        F = make_synthetic("coverage", 12, 3, seed=3)
        mgr = ThresholdManager(F, epsilon=1.0, ell=3, k=2)
        created_at = {}
        for t, u in enumerate(range(12)):
            before = set(mgr.instances)
            mgr.process(u)
            for l in set(mgr.instances) - before:
                created_at[(l, id(mgr.instances[l]))] = (t, mgr.instances[l].tau)
        for (l, _), (t, tau) in created_at.items():
            replay = StreamState(F.m, 3, 2, 1.0, tau)
            for u in range(t):
                assert not exchange(F, u, replay)


class TestAdmission:
    def test_refuses_a_huge_grid_before_any_eval(self):
        # 5,010,639 instances; only the constructor runs, never the stream
        F = make_synthetic("modular", 5, 1, seed=0)
        before = F.evals
        with pytest.raises(InstanceBudgetError, match="5010639") as exc:
            ThresholdManager(F, epsilon=1e-6, ell=25, k=3)
        assert isinstance(exc.value, ValueError)
        assert F.evals == before

    def test_refuses_a_huge_grid_at_one_function_and_budget(self):
        # 8,958,800 instances but only that many slots at m = ell = 1:
        # about 5 GB of empty states on the first positive element
        F = make_synthetic("modular", 3, 1, seed=0)
        before = F.evals
        with pytest.raises(InstanceBudgetError, match="8958800") as exc:
            ThresholdManager(F, 2e-7, 1, 1)
        assert str(MAX_INSTANCES) in str(exc.value)
        assert F.evals == before

    def test_limit_is_on_instances_times_functions_times_ell(self):
        per_function = 5015 * 25  # instance_bound() at epsilon=1e-3, ell=25
        m = MAX_INSTANCE_SLOTS // per_function
        F = make_synthetic("modular", 2, m, seed=0)
        assert ThresholdManager(F, 1e-3, 25, 3).instance_bound() == 5015
        with pytest.raises(InstanceBudgetError):
            ThresholdManager(make_synthetic("modular", 2, m + 1, seed=0),
                             1e-3, 25, 3)


class TestRunStreaming:
    def test_guarantee_on_random_instances(self):
        for seed in range(10):
            F = make_synthetic("modular", 10, 3, seed=seed)
            opt = brute_force_opt(F, 3, 2).value
            sol = run_streaming(range(10), F, epsilon=1.0, ell=3, k=2)
            assert sol.value >= opt / 7.0 - 1e-9
            assert sol.value <= opt + 1e-9

    def test_dominant_singleton_is_kept(self):
        F = modular_family((0.01, 0.02, 5.0, 0.03, 0.01))
        sol = run_streaming(range(5), F, epsilon=1.0, ell=2, k=1)
        assert 2 in sol.summary

    def test_stored_elements_bounded(self):
        F = make_synthetic("coverage", 15, 3, seed=1)
        ell = 3
        mgr = ThresholdManager(F, epsilon=1.0, ell=ell, k=2)
        mgr.run(range(15))
        assert mgr.peak_stored <= ell * mgr.instance_bound()

    def test_value_matches_recomputation(self):
        F = make_synthetic("facility", 12, 2, seed=6)
        sol = run_streaming(range(12), F, epsilon=0.5, ell=3, k=2)
        assert sol.value == pytest.approx(evaluate_solution(F, sol), abs=1e-9)

    def test_empty_stream(self):
        F = modular_family((1.0, 2.0))
        sol = run_streaming([], F, epsilon=1.0, ell=2, k=1)
        assert sol.value == 0.0

    def test_instrumented_run_is_clean(self):
        for seed in range(5):
            F = make_synthetic("coverage", 10, 3, seed=seed)
            order = list(range(10))
            np.random.default_rng(seed).shuffle(order)
            run_streaming(order, F, epsilon=1.0, ell=3, k=2, instrument=True)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_objective_raises(bad):
    with pytest.raises(NonFiniteValueError, match="function 1"):
        run_streaming(range(6), poisoned_family(bad), 0.5, ell=3, k=2)


class TestEvalMemo:
    def test_no_memo_is_left_open_after_a_run(self):
        F = make_synthetic("coverage", 12, 3, seed=2)
        mgr = ThresholdManager(F, 0.5, 3, 2).run(range(12))
        assert len(mgr.instances) >= 2
        assert F._memo is None

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_no_memo_is_left_open_after_an_element_raises(self, bad):
        F = poisoned_family(bad)
        mgr = ThresholdManager(F, 0.5, 3, 2).run([0, 1, 2])
        assert mgr.instances
        with pytest.raises(NonFiniteValueError, match="function 1"):
            mgr.process(3)
        assert F._memo is None

    def test_memo_is_fresh_for_each_element(self):
        seen = []
        F = make_synthetic("modular", 4, 2, seed=0)
        value = F.value

        def spy(i, ids):
            seen.append(F._memo)
            return value(i, ids)
        F.value = spy
        mgr = ThresholdManager(F, 1.0, 2, 1)
        mgr.process(0)
        mgr.process(0)
        assert None not in seen
        assert len({id(memo) for memo in seen}) == 2


@pytest.mark.parametrize("family", [
    lambda: make_synthetic("coverage", 40, 3, seed=5),
    lambda: exemplar_family(float_features(40, 4, 0), 4),
], ids=["coverage", "exemplar"])
def test_memo_keys_and_replayed_sets_are_canonical(family, monkeypatch):
    """The memo only stores sorted tuples of ids in range, which is what
    lets ``value`` serve a tuple found there as given; and every set a
    follower replays is found there as given."""
    F = family()
    scope = F._memo_scope
    stored = []

    @contextmanager
    def checked_scope():
        with scope():
            yield
            for memo in F._memo:
                for key in memo:
                    assert type(key) is tuple
                    assert list(key) == sorted(set(key))
                    assert all(0 <= e < F.ground.n for e in key)
            stored.append(sum(map(len, F._memo)))
    F._memo_scope = checked_scope

    replay = streaming._Group.replay
    replayed = []

    def checked_replay(self, F, u, state):
        replay(self, F, u, state)
        assert all(ids in F._memo[i] for i, ids in self.sets)
        replayed.append(len(self.sets))
    monkeypatch.setattr(streaming._Group, "replay", checked_replay)

    stream = np.random.default_rng(1).permutation(F.ground.n).tolist()
    mgr = ThresholdManager(F, 0.2, 4, 2).run(stream)
    assert len(stored) == F.ground.n and min(stored) > 0
    assert sum(replayed) > 0 and mgr.best_solution().value > 0


def test_grouped_run_keeps_no_tuple_per_exchange():
    """Grouping the instances by token allocates nothing per function per
    exchange.  Keyed by ``tuple(state.T)`` instead, the m=20 run below peaked
    near 370 KiB on CPython 3.11, whose free list keeps every freed 20-slot
    tuple and never reuses one; the token-keyed run peaks near 35 KiB."""
    F = exemplar_family(float_features(160, 20, 0), 20)
    mgr = ThresholdManager(F, 0.5, 10, 3)
    gc.collect()  # a full collection also empties the tuple free lists
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        mgr.run(range(160))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(mgr.instances) > 1
    assert peak < 128 * 1024

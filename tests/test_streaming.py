import gc
import inspect
import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import cli, distributed, oracle, streaming
from twostage.core import (GroundSet, NonFiniteValueError, ObjectiveFamily,
                           evaluate_solution, solution_from_sets)
from twostage.distributed import distributed_fast, pseudo_streaming
from twostage.objectives import exemplar_family, make_synthetic
from twostage.oracle import brute_force_opt
from twostage.streaming import (MAX_INSTANCE_SLOTS, MAX_INSTANCES,
                                InstanceBudgetError, StreamState,
                                ThresholdManager, exchange, run_know_opt,
                                run_streaming)

from conftest import (NON_FINITE, expected_served, float_features,
                      followers, kernel_counted, modular_family,
                      poisoned_family, recorded_run)


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

    def test_an_average_gain_equal_to_tau_is_accepted(self, worked_instance):
        F = worked_instance
        state = fresh_state(F, ell=2, k=1, tau=2.0)
        assert exchange(F, 0, state)  # singleton gains (3, 1), avg 2

    def test_a_full_summary_rejects_without_any_eval(self, worked_instance):
        # at tau 0.0 any element the summary has room for is accepted
        F = worked_instance
        state = fresh_state(F, ell=1, k=1, tau=0.0)
        assert exchange(F, 0, state)
        before = F.evals
        assert not exchange(F, 1, state)
        assert (state.S, F.evals) == ({0}, before)

    def test_duplicate_arrival_is_rejected(self, worked_instance):
        F = worked_instance
        state = fresh_state(F, ell=3, k=1, tau=0.25)
        assert exchange(F, 0, state)
        assert not exchange(F, 0, state)
        assert state.S == {0}

    def test_a_new_base_is_its_sets_value_not_base_plus_gain(self):
        # base + (v - base) rounds away from v here: (1 + 2**-52) - 2**-53
        # and 2**-53 + 1 are both ties that round to the even 1.0
        values = {(): 0.0, (0,): 2.0 ** -53, (1,): 1.0 + 2.0 ** -52,
                  (0, 1): 1.0 + 2.0 ** -52}
        F = ObjectiveFamily(GroundSet(2), [values.__getitem__])
        state = fresh_state(F, ell=2, k=2, tau=0.0)
        for u in (0, 1):
            assert exchange(F, u, state)
        assert (state.T, state.base) == ([(0, 1)], [1.0 + 2.0 ** -52])


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

    @pytest.mark.parametrize("bad", [2.5, np.float64(3.0)])
    def test_a_non_integer_id_is_named(self, bad):
        F = make_synthetic("coverage", 20, 3, 0)
        with pytest.raises(TypeError, match=re.escape(
                f"element ids must be integers, got {bad!r}")):
            run_know_opt([0, bad], F, 1.0, 2, 1)

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


@pytest.mark.parametrize("ell,k,error", [(3, 0, ValueError),
                                         (3, 2.5, TypeError),
                                         (2, 4, ValueError),
                                         (0, 1, ValueError)])
def test_fresh_state_checks_its_budgets_before_any_eval(ell, k, error):
    # unchecked, k=0 divided by zero at the first exchange, k=2.5 kept sets
    # of three, and k > ell or ell=0 ran
    F = make_synthetic("coverage", 20, 3, seed=0)
    before = F.evals
    with pytest.raises(error):
        state = StreamState(F.m, ell, k, 1.0, 0.1)
        for u in range(20):
            exchange(F, u, state)
    assert F.evals == before


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


def test_a_window_error_leaves_delta_with_its_window():
    """The window moves only when delta rises, so a rise whose window is
    outside the float range leaves delta where it was: a later element is
    processed against the window delta gives."""
    mgr = ThresholdManager(modular_family((1.0, 1e250, 2.0)), 1e200, 1, 1)
    mgr.process(0)
    live = dict(mgr.instances)
    with pytest.raises(ValueError, match="epsilon"):
        mgr.process(1)
    assert (mgr.delta, mgr.instances) == (1.0, live)
    mgr.process(2)
    assert mgr.delta == 2.0
    assert sorted(mgr.instances) == list(mgr._active_range())


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
        assert sorted(mgr.instances) == [-2, -1, 0, 1]
        taus = [tau for tau, _ in mgr.all_solutions()]
        assert taus == [0.25, 0.5, 1.0, 2.0]

    def test_an_average_gain_equal_to_tau_is_accepted(self):
        # at epsilon=1 the taus are powers of two, and element 0's average
        # gain, (3 + 1) / 2, is exactly the top one
        F = modular_family((3.0, 0.0), (1.0, 0.0))
        mgr = ThresholdManager(F, epsilon=1.0, ell=2, k=1)
        mgr.process(0)
        assert [(tau, sorted(sol.summary)) for tau, sol
                in mgr.all_solutions()] == [(0.25, [0]), (0.5, [0]),
                                            (1.0, [0]), (2.0, [0])]
        assert len(set(map(id, mgr.instances.values()))) == 1

    @pytest.mark.parametrize("delta", [
        0.004371363744640307, 0.0032842702814728075,  # the upper end's
        0.0029779336853049568, 4.16638207772693])  # the lower end's
    def test_each_window_fix_up_gives_the_brute_force_window(self, delta):
        # at each delta a rounded logarithm puts one end of the window one
        # exponent off, and one of the four correction loops moves it back
        mgr = ThresholdManager(modular_family((1.0, 0.0)), 0.1, 1, 1)
        mgr.delta = delta
        lo = delta / (1.1 * mgr.beta)
        assert list(mgr._active_range()) == [
            l for l in range(-300, 300) if lo <= 1.1 ** l <= delta]

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
                created_at[l] = t
        for l, t in created_at.items():
            replay = StreamState(F.m, 3, 2, 1.0, 2.0 ** l)
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


    @pytest.mark.parametrize("limit", ["MAX_INSTANCE_SLOTS", "MAX_INSTANCES"])
    def test_a_grid_at_a_limit_is_accepted_and_one_over_it_refused(
            self, limit):
        F = make_synthetic("modular", 2, 3, seed=0)
        bound = ThresholdManager(F, 0.1, 4, 2).instance_bound()
        at = bound * 3 * 4 if limit == "MAX_INSTANCE_SLOTS" else bound
        with mock.patch.object(streaming, limit, at):
            ThresholdManager(F, 0.1, 4, 2)
        with mock.patch.object(streaming, limit, at - 1):
            with pytest.raises(InstanceBudgetError, match=str(at - 1)):
                ThresholdManager(F, 0.1, 4, 2)


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


class TestProbeDict:
    """``ThresholdManager.process`` gives the leaders of one element one
    probe dict (``_Sets.probe``'s ``seen``), seeded with its singletons."""

    def test_each_element_has_its_own_seeded_dict(self):
        F = make_synthetic("modular", 4, 2, seed=0)
        steps = recorded_run(ThresholdManager(F, 1.0, 2, 1), [0, 1])
        assert steps[0]["seen"] is not steps[1]["seen"]
        for step in steps:
            u = step["u"]
            singles = [F.value(i, (u,)) for i in range(F.m)]
            assert [seen[()] for seen in step["seen"]] == \
                [(None, v, v, [(i, (u,), v)]) for i, v in enumerate(singles)]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_an_element_whose_value_is_not_finite_raises(self, bad):
        F = poisoned_family(bad)
        mgr = ThresholdManager(F, 0.5, 3, 2).run([0, 1, 2])
        assert mgr.instances
        with pytest.raises(NonFiniteValueError, match="function 1"):
            mgr.process(3)

    def test_all_solutions_evaluates_the_sets_of_a_group_once(self):
        """The instances of a group hold the same sets: ``all_solutions``
        gives the solutions and the evals of evaluating each instance on
        its own, with fewer objective calls."""
        F, calls = kernel_counted(make_synthetic("coverage", 40, 3, seed=2))
        mgr = ThresholdManager(F, 0.2, 4, 2).run(range(40))
        live = sorted(mgr.instances.items())
        assert len({id(state) for _, state in live}) < len(live)
        before, made = F.evals, calls[0]
        got = mgr.all_solutions()
        evals, objective_calls = F.evals - before, calls[0] - made
        before, made = F.evals, calls[0]
        want = [((1.0 + mgr.epsilon) ** l,
                 solution_from_sets(F, state.S, state.T, 4, 2))
                for l, state in live]
        assert (got, evals) == (want, F.evals - before)
        assert objective_calls < calls[0] - made


STREAM_KINDS = {
    "modular": lambda: make_synthetic("modular", 40, 3, seed=5),
    "coverage": lambda: make_synthetic("coverage", 40, 3, seed=5),
    "facility": lambda: make_synthetic("facility", 40, 3, seed=5),
    "exemplar": lambda: exemplar_family(float_features(40, 3, 0), 3),
}


@pytest.mark.parametrize("kind", sorted(STREAM_KINDS))
def test_each_function_set_reaches_the_objective_once_per_element(kind):
    """Within one element, each (i, T_i) that the leaders hold reaches f_i
    or the row kernel in at most one probe, and an empty T_i in none: the
    other leaders, and the empty sets, are served from the element's probe
    dict, also when a lookahead row serves them.  A lookahead fill is not a
    probe: it computes a state's whole block over the arrivals ahead, and
    the long-lived states on the kernel families here make some.
    ``_Sets.add`` calls no f_i, and ``all_solutions`` calls f_i at most m
    times per distinct state."""
    F = STREAM_KINDS[kind]()
    where = [("other", None, 0)]  # (phase, state, number of the call)
    reached, held, f_calls, calls = [], [], {}, itertools.count(1)
    repeats = [0]  # probes of a non-empty (i, T_i) already probed for u

    def reach(i):
        phase, state, n = where[-1]
        f_calls[phase] = f_calls.get(phase, 0) + 1
        if phase == "probe":
            reached[-1].append((i, state.T[i], n))

    def counted(i, f):
        def g(key):
            reach(i)
            return f(key)
        return g

    def in_phase(phase, method):
        def wrapper(state, *args):
            where.append((phase, state, next(calls)))
            if phase == "probe":
                for i, t in enumerate(state.T):
                    repeats[0] += bool(t) and (i, t) in held[-1]
                    held[-1].add((i, t))
            try:
                return method(state, *args)
            finally:
                where.pop()
        return wrapper

    def updated(mgr, u):
        reached.append([])
        held.append(set())
        return update(mgr, u)

    F._functions = [counted(i, f) for i, f in enumerate(F._functions)]
    if F._row is not None:
        row = F._row
        F._row = lambda i, x, bases: reach(i) or row(i, x, bases)
    fills = []
    if F._block is not None:
        block = F._block
        F._block = lambda *args: fills.append(args) or block(*args)
    update = ThresholdManager.update_thresholds
    stream = np.random.default_rng(1).permutation(40).tolist()
    mgr = ThresholdManager(F, 0.2, 6, 3)
    with mock.patch.object(streaming._Sets, "probe",
                           in_phase("probe", streaming._Sets.probe)), \
            mock.patch.object(streaming._Sets, "add",
                              in_phase("add", streaming._Sets.add)), \
            mock.patch.object(ThresholdManager, "update_thresholds",
                              updated):
        mgr.run(stream)
    assert bool(fills) == (F._block is not None)
    assert f_calls.get("add", 0) == 0
    for step in reached:
        first = {}
        for i, t, n in step:
            assert t != ()
            assert first.setdefault((i, t), n) == n
    assert repeats[0] > 0
    before = f_calls.get("other", 0)
    states = len({id(s) for s in mgr.instances.values()})
    assert states < len(mgr.instances)
    mgr.all_solutions()
    assert f_calls["other"] - before <= F.m * states


@pytest.mark.parametrize("family", [
    lambda: make_synthetic("coverage", 40, 3, seed=5),
    lambda: exemplar_family(float_features(40, 4, 0), 4),
], ids=["coverage", "exemplar"])
def test_probe_dict_keys_and_replayed_sets_are_canonical(family):
    """The probe dict's keys are T_i, sorted tuples of ids in range, one
    dict per function, and a follower replays its leader's recorded calls, one eval
    each: every call's set is canonical once sorted, and every served call
    outside a probe and a build, a replay or a taken state's base eval,
    makes again a call that the element's probe dict recorded, with the
    same value."""
    F = family()
    stream = np.random.default_rng(1).permutation(F.ground.n).tolist()
    mgr = ThresholdManager(F, 0.2, 4, 2)
    replayed = stored = 0
    for step in recorded_run(mgr, stream):
        assert len(step["seen"]) == F.m
        for key in (key for seen in step["seen"] for key in seen):
            assert type(key) is tuple and list(key) == sorted(set(key))
            assert all(0 <= e < F.ground.n for e in key)
        replays = [call for _, _, calls, _ in followers(step)
                   for call in calls]
        for i, ids, v in replays:
            key = tuple(sorted(ids))
            assert list(key) == sorted(set(key))
            assert all(0 <= e < F.ground.n for e in key)
        served = step["served"]
        assert [(i, ids, v) for i, ids, v, *_ in served] == \
            expected_served(step)
        assert all(evals == 1 and probed == v
                   for _, _, v, evals, _, probed in served)
        replayed += len(replays)
        stored += sum(map(len, step["seen"])) > F.m
    assert stored > 0
    assert replayed > 0 and mgr.best_solution().value > 0


def test_grouped_run_keeps_no_tuple_per_exchange():
    """Finding the runs of instances by their shared state allocates
    nothing per function per exchange.  Keyed by ``tuple(state.T)``
    instead, the m=20 run below peaked near 370 KiB on CPython 3.11, whose
    free list keeps every freed 20-slot tuple and never reuses one; by the
    state itself, it peaks near 48 KiB, lookahead blocks included."""
    F = exemplar_family(float_features(160, 20, 0), 20)
    mgr = ThresholdManager(F, 0.5, 10, 3)
    _, peak, _ = traced_growth(lambda: mgr.run(range(160)))
    assert len(mgr.instances) > 1
    assert peak < 128 * 1024


def traced_growth(call):
    """(result, peak, held): what ``call()`` returns, the bytes it allocated
    at its peak and those still allocated once it returns, after full
    collections before and after, so that free lists hold no tuple of
    earlier work."""
    gc.collect()  # a full collection also empties the tuple free lists
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, peak, held


def test_fine_grid_run_grows_with_distinct_states():
    """At epsilon=0.02, 207 instances live on about 12 distinct states.
    With the exponents mapped straight to their states the run below peaks
    near 43 KiB on CPython 3.11; with a handle per instance on shared
    states it peaked near 85 KiB, and with a copy of S, T, base and the
    probe table per instance near 575 KiB."""
    F = make_synthetic("coverage", 300, 5, seed=1)
    order = np.random.default_rng(1).permutation(300).tolist()
    mgr = ThresholdManager(F, 0.02, 10, 3)
    _, peak, _ = traced_growth(lambda: mgr.run(order))
    assert len(mgr.instances) == 207
    assert peak < 192 * 1024


def test_instances_of_one_group_hold_one_state_between_them():
    """At m=10 and k=ell=25 a state filled to budget holds ten probe-table
    entries of 25 bases each: about 66 KB on CPython 3.11.  With equal
    weights every live instance takes every element, so all of them share
    one such state, and each adds only its slot in the instance dict,
    about 72 B (170 B with a handle and tau per instance, and about 67 KB
    with a state per instance)."""
    F = modular_family(*[(1.0,) * 40] * 10)

    def fill_one():
        state = StreamState(F.m, 25, 25, 1.0, 0.0)
        for u in range(40):
            exchange(F, u, state)
        return state

    one, _, state_bytes = traced_growth(fill_one)
    mgr, _, held = traced_growth(
        lambda: ThresholdManager(F, 0.1, 25, 25).run(range(40)))
    live = list(mgr.instances.values())
    assert all(len(t) == 25 for t in one.T)
    assert len(live) == 53 and len({id(s) for s in live}) == 1
    assert live[0].T == one.T
    assert state_bytes > 60_000
    assert (held - state_bytes) / len(live) < 128


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["modular", "coverage", "facility", "exemplar"]),
       epsilon=st.sampled_from([0.02, 0.2, 1.0]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_each_state_holds_one_run_of_exponents(kind, epsilon, seed, data):
    """After every element of ``run``, with the lookahead on (at any price)
    where F has a block kernel, each distinct live state holds one run of
    consecutive exponents, and two exponents share a state exactly when
    they hold equal S, T and base."""
    n = 10
    m = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    ell = data.draw(st.integers(k, k + 3))
    stream = data.draw(st.lists(st.integers(0, n - 1), max_size=25))
    price = data.draw(st.sampled_from([0, streaming.KERNEL_CALL_EVALS]))
    F = (exemplar_family(float_features(n, m, seed), m) if kind == "exemplar"
         else make_synthetic(kind, n, m, seed))
    mgr = ThresholdManager(F, epsilon, ell, k)
    process = mgr.process

    def checked(u):
        process(u)
        live = sorted(mgr.instances.items())
        assert [l for l, _ in live] == list(range(live[0][0],
                                                  live[-1][0] + 1)) if live \
            else mgr.delta == 0
        runs = [s for i, (_, s) in enumerate(live)
                if i == 0 or s is not live[i - 1][1]]
        assert len(set(map(id, runs))) == len(runs)
        sets = [(s.S, s.T, s.base) for s in runs]
        assert all(a != b for i, a in enumerate(sets) for b in sets[i + 1:])

    mgr.process = checked
    with mock.patch.object(streaming, "KERNEL_CALL_EVALS", price):
        mgr.run(stream)


def test_a_state_fills_its_first_block_at_the_lookaheads_price():
    """A state that a manager holds never changes, so each of its leaders'
    set-by-set probes makes E = sum(len(bases)) evals over its probe
    table, and its first block is filled at the first probe that follows
    KERNEL_CALL_EVALS * m such evals: probe ceil(KERNEL_CALL_EVALS * m /
    E) + 1.  The states are kept as keys, so no id is reused."""
    F = make_synthetic("facility", 200, 5, 3)
    order = list(range(200))
    np.random.default_rng(0).shuffle(order)
    mgr = ThresholdManager(F, 0.5, 10, 3)
    lookahead, first = mgr._lookahead, {}

    def recorded(u, state):
        kept = state.kept
        raws = lookahead(u, state)
        if state.kept is not None and state.kept is not kept:
            evals = sum(len(bases) for bases, _ in state.moves)
            first.setdefault(state, (state.seen_probes, evals))
        return raws

    mgr._lookahead = recorded
    mgr.run(order)
    price = streaming.KERNEL_CALL_EVALS * F.m
    assert first
    assert all(probes == -(-price // evals) + 1
               for probes, evals in first.values())


@pytest.mark.parametrize("family, stream", [
    (lambda: make_synthetic("coverage", 40, 3, seed=2),
     np.random.default_rng(2).permutation(40).tolist() * 2),
    # equal singletons: the second of each pair leaves delta where it is
    (lambda: modular_family((1.0, 1.0, 2.0, 0.5, 2.0, 3.0, 3.0)),
     [3, 0, 1, 2, 4, 3, 5, 6, 5]),
], ids=["coverage", "ties"])
def test_window_moves_only_when_delta_rises(family, stream):
    """update_thresholds calls _active_range once per strict rise of delta
    and never otherwise, and the live exponents are always the window that
    delta gives."""
    mgr = ThresholdManager(family(), 0.2, 6, 2)
    window, calls = mgr._active_range, []
    mgr._active_range = lambda: calls.append(mgr.delta) or window()
    rises = 0
    for u in stream:
        before, made = mgr.delta, len(calls)
        mgr.process(u)
        rose = mgr.delta > before
        rises += rose
        assert len(calls) - made == rose
        assert sorted(mgr.instances) == list(window())
    assert len(calls) == rises > 1


@pytest.mark.parametrize("family", [
    lambda: make_synthetic("coverage", 60, 3, seed=5),
    lambda: exemplar_family(float_features(60, 4, 0), 4),
], ids=["coverage", "exemplar"])
def test_stored_is_a_running_count_of_the_live_summaries(family):
    """After every element, through run and its lookahead too, ``stored``
    is the sum of the live instances' |S|, and ``peak_stored`` its largest
    value; the window drops some instances that hold elements."""
    F = family()
    mgr = ThresholdManager(F, 0.2, 4, 2)
    process, totals, dropped = mgr.process, [], []

    def checked(u):
        live = dict(mgr.instances)
        process(u)
        dropped.extend(len(s.S) for l, s in live.items()
                       if l not in mgr.instances)
        totals.append(sum(len(s.S) for s in mgr.instances.values()))
        assert mgr.stored == totals[-1]

    mgr.process = checked
    # ascending singletons: delta rises often, so filled instances drop
    stream = sorted(range(60), key=F.singleton_average)
    mgr.run(stream + stream[::-1])
    assert len(totals) == 120 and mgr.peak_stored == max(totals)
    assert max(dropped) > 0

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import core
from twostage.cli import ConfigError, ExperimentConfig, run_experiment
from twostage.core import (GroundSet, InvariantViolation, NonFiniteValueError,
                           ObjectiveFamily, SwapOutcome, TwoStageSolution,
                           empty_solution, evaluate_solution, lambda_gain,
                           marginal, nabla, rep, solution_from_sets)
from twostage.distributed import (distributed_fast, partition,
                                  recommend_machine_count,
                                  replacement_distributed)
from twostage.greedy import replacement_greedy
from twostage.objectives import make_synthetic
from twostage.oracle import OracleBudgetError, brute_force_opt, estimate_work
from twostage.streaming import (StreamState, ThresholdManager, exchange,
                                run_know_opt, run_streaming)

from conftest import (NON_FINITE, kernel_counted, modular_family,
                      poisoned_family)


class TestGroundSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSet(0)

    def test_elements(self):
        assert list(GroundSet(3).elements()) == [0, 1, 2]


class TestSolutionCheck:
    def test_a_solution_within_its_budgets_passes(self):
        TwoStageSolution(frozenset({0, 1}), (frozenset({0}), frozenset()),
                         1.0, 2, 1).check()

    @pytest.mark.parametrize("summary,per_function,match", [
        ({0, 1, 2}, ({0},), "summary exceeds its budget"),
        ({0, 1}, ({0, 1},), "per-function solution exceeds its budget"),
        ({0, 1}, ({2},), "per-function solution not contained in summary"),
    ])
    def test_each_violation_raises(self, summary, per_function, match):
        sol = TwoStageSolution(frozenset(summary),
                               tuple(map(frozenset, per_function)), 1.0, 2, 1)
        with pytest.raises(ValueError, match=match):
            sol.check()


class TestObjectiveFamily:
    def test_needs_a_function(self):
        with pytest.raises(ValueError):
            ObjectiveFamily(GroundSet(1), [])

    def test_normalized_to_zero_on_empty(self):
        # raw function is offset by 5 everywhere
        F = ObjectiveFamily(GroundSet(2), [lambda ids: 5.0 + len(ids)])
        assert F.value(0, ()) == 0.0
        assert F.value(0, (0,)) == 1.0

    def test_bad_indices(self):
        F = modular_family((1.0, 2.0))
        with pytest.raises(ValueError):
            F.value(5, (0,))
        with pytest.raises(ValueError):
            F.value(0, (9,))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_value_names_function_and_set(self, bad):
        F = poisoned_family(bad)
        assert F.value(1, [4, 1]) == 2.0
        with pytest.raises(NonFiniteValueError,
                           match=r"function 1 .* \(1, 3\)"):
            F.value(1, [3, 1])
        assert isinstance(NonFiniteValueError(), ValueError)

    def test_non_finite_empty_set_value_rejected_at_construction(self):
        with pytest.raises(NonFiniteValueError):
            ObjectiveFamily(GroundSet(2), [lambda ids: float("nan")])

    def test_eval_counter_is_deterministic(self):
        def run():
            F = modular_family((3.0, 2.0, 1.0))
            before = F.evals
            rep(F, 0, 2, {0, 1})
            nabla(F, 0, 2, {0, 1}, 1.0, 2)
            return F.evals - before

        assert run() == run()


@pytest.fixture
def counted():
    """One modular function with weights 1..4 and its kernel-call count."""
    return kernel_counted(modular_family((1.0, 2.0, 3.0, 4.0)))


class TestValue:
    """``value`` without a served value: every call sorts its ids, checks
    them, counts one eval and calls f_i on the sorted tuple."""

    def test_every_call_is_counted_and_computed(self, counted):
        F, calls = counted
        before = F.evals
        for _ in range(3):
            assert F.value(0, (2, 1)) == 5.0
        assert F.value(0, [1, 2]) == 5.0
        assert F.value(0, (3,)) == 4.0
        assert (calls[0], F.evals - before) == (5, 5)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_value_raises_on_every_repeat(self, bad):
        F = poisoned_family(bad)
        before = F.evals
        for _ in range(2):
            with pytest.raises(NonFiniteValueError, match="function 1"):
                F.value(1, (3,))
        assert F.evals - before == 2

    def test_out_of_range_ids_raise_before_f(self, counted):
        F, calls = counted
        F.value(0, (1,))
        with pytest.raises(ValueError, match="function index"):
            F.value(1, (1,))
        with pytest.raises(ValueError, match="element id"):
            F.value(0, (1, 4))
        assert calls[0] == 1

    def test_every_set_is_sorted_and_f_gets_the_sorted_tuple(
            self, monkeypatch):
        keys = []
        F = ObjectiveFamily(GroundSet(4), [lambda key: keys.append(key)
                                           or float(sum(key))])
        sorts = []

        def spy(ids):
            ids = list(ids)
            sorts.append(tuple(ids))
            return sorted(ids)
        monkeypatch.setattr(core, "sorted", spy, raising=False)
        keys.clear()
        for ids in [(2, 1), (1, 2), (1, 2), [3, 0]]:
            F.value(0, ids)
        assert sorts == [(2, 1), (1, 2), (1, 2), (3, 0)]
        assert keys == [(1, 2), (1, 2), (1, 2), (0, 3)]

    def test_bad_function_index_raises_before_any_eval(self, counted):
        F, calls = counted
        F.value(0, (1,))
        before = F.evals
        for i in (-1, 1):
            with pytest.raises(ValueError, match="function index"):
                F.value(i, (1,))
        assert (F.evals, calls[0]) == (before, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(-1, 2),
        st.lists(st.integers(-1, 4), max_size=4),
        st.sampled_from([tuple, list, lambda ids: tuple(sorted(ids))])),
        max_size=30))
    def test_any_call_is_f_on_the_sorted_set_or_raises(self, calls):
        """Any sequence of ``value`` calls (sets as permuted or sorted
        tuples or as lists, with repeated and out-of-range ids, and bad
        function indices) returns f_i on the sorted set, counting one eval
        and one f_i call, or raises ValueError before either."""
        weights = (1.0, 2.0, 3.0, 4.0), (4.0, 3.0, 2.0, 1.0)
        F, made = kernel_counted(modular_family(*weights))
        for i, ids, form in calls:
            before, f_calls = F.evals, made[0]
            if 0 <= i < 2 and all(0 <= e < 4 for e in ids):
                want = float(sum(weights[i][e] for e in sorted(ids)))
                assert F.value(i, form(ids)) == want
                assert (F.evals - before, made[0] - f_calls) == (1, 1)
            else:
                with pytest.raises(ValueError):
                    F.value(i, form(ids))
                assert (F.evals, made[0]) == (before, f_calls)


class TestServedValue:
    """``value``'s internal ``served`` argument: a block kernel's value for
    the set, counted as one eval and returned in place of f_i's."""

    def test_finite_value_is_counted_without_calling_f(self, counted):
        F, calls = counted
        before = F.evals
        assert F.value(0, (2, 1), 7.5) == 7.5
        assert (calls[0], F.evals - before) == (0, 1)

    def test_bad_function_index_raises_before_it_is_served(self, counted):
        F, calls = counted
        with pytest.raises(ValueError, match="function index"):
            F.value(1, (1,), 2.0)
        assert calls[0] == 0

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_out_of_range_candidate_raises_at_the_block_boundary(self, bad):
        """A served value's ids are not checked by ``value``: ``best``
        range-checks each block's candidates before any kernel call, so a
        bad candidate raises before any kernel call or eval."""
        F = make_synthetic("facility", 12, 2, 0)
        kernel = F._block
        calls = []

        def counted(i, bases):
            calls.append(i)
            return kernel(i, bases)

        F._block = counted
        before = F.evals
        with pytest.raises(ValueError, match="element id"):
            core._Sets(F.m, 2).best(F, [3, bad, 5])
        assert (calls, F.evals - before) == ([], 0)

    @pytest.mark.parametrize("served", NON_FINITE)
    def test_non_finite_value_calls_f(self, counted, served):
        F, calls = counted
        before = F.evals
        assert F.value(0, (2, 1), served) == 5.0
        assert (calls[0], F.evals - before) == (1, 1)

    @pytest.mark.parametrize("served", NON_FINITE)
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_value_and_f_raise(self, served, bad):
        F = poisoned_family(bad)
        before = F.evals
        with pytest.raises(NonFiniteValueError, match=r"function 1 .*\(1, 3\)"):
            F.value(1, (3, 1), served)
        assert F.evals - before == 1


class TestIntegerArguments:
    """Budgets and machine counts that are not integers raise TypeError
    before any eval; numpy integers are integers."""

    SOLVES = {
        "run_streaming": lambda F, ell, k, M: run_streaming(
            range(20), F, 0.5, ell, k),
        "run_know_opt": lambda F, ell, k, M: run_know_opt(
            range(20), F, 1.0, ell, k),
        "replacement_greedy": lambda F, ell, k, M: replacement_greedy(
            F, range(20), ell, k),
        "replacement_distributed": lambda F, ell, k, M:
            replacement_distributed(F, M, ell, k, 0),
        "distributed_fast": lambda F, ell, k, M: distributed_fast(
            F, M, 0.5, ell, k, 0),
    }

    @pytest.mark.parametrize("name, ell, k, M", [
        (name, ell, k, M) for name in SOLVES
        for ell, k, M in [(2.5, 2, 2), (3, 1.5, 2), (3, 2, 2.5)]
        if M == 2 or "distributed" in name])
    def test_non_integer_raises_before_any_eval(self, name, ell, k, M):
        F = make_synthetic("coverage", 20, 2, 0)
        before = F.evals
        with pytest.raises(TypeError, match="integer"):
            self.SOLVES[name](F, ell, k, M)
        assert F.evals == before

    @pytest.mark.parametrize("name", SOLVES)
    def test_numpy_integers_are_accepted(self, name):
        F = make_synthetic("coverage", 20, 2, 0)
        G = make_synthetic("coverage", 20, 2, 0)
        solve = self.SOLVES[name]
        assert (solve(F, np.int64(3), np.int32(2), np.int16(2)), F.evals) == (
            solve(G, 3, 2, 2), G.evals)


# (case, call on a coverage family F, error type, message pattern): each bad
# seed, size or budget is refused with its typed error before any eval
BAD_INPUTS = [
    ("partition seed None", lambda F: partition(20, 3, None), TypeError,
     "seed"),
    ("partition seed 2.5", lambda F: partition(20, 3, 2.5), TypeError, "seed"),
    ("partition seed -1", lambda F: partition(20, 3, -1), ValueError, "seed"),
    ("replacement_distributed seed None",
     lambda F: replacement_distributed(F, 2, 3, 2, None), TypeError, "seed"),
    ("replacement_distributed seed -1",
     lambda F: replacement_distributed(F, 2, 3, 2, -1), ValueError, "seed"),
    ("distributed_fast seed None",
     lambda F: distributed_fast(F, 2, 0.5, 3, 2, None), TypeError, "seed"),
    ("distributed_fast seed -1",
     lambda F: distributed_fast(F, 2, 0.5, 3, 2, -1), ValueError, "seed"),
    ("make_synthetic seed None",
     lambda F: make_synthetic("coverage", 20, 2, None), TypeError, "seed"),
    ("make_synthetic seed -1",
     lambda F: make_synthetic("facility", 20, 2, -1), ValueError, "seed"),
    ("GroundSet n 2.5", lambda F: GroundSet(2.5), TypeError, "integer"),
    ("recommend_machine_count n 2.5",
     lambda F: recommend_machine_count(2.5, 1, "fast"), TypeError, "integer"),
    ("recommend_machine_count ell 2.5",
     lambda F: recommend_machine_count(100, 2.5, "distributed"), TypeError,
     "integer"),
    ("brute_force_opt budget nan",
     lambda F: brute_force_opt(F, 2, 1, max_evaluations=float("nan")),
     OracleBudgetError, "budget of nan"),
    ("brute_force_opt budget None",
     lambda F: brute_force_opt(F, 2, 1, max_evaluations=None), TypeError,
     "budget must be a number, got None"),
    ("value function index 0.5", lambda F: F.value(0.5, (1,)), TypeError,
     "function index must be an integer, got 0.5"),
    ("value function index None", lambda F: F.value(None, (1,)), TypeError,
     "function index must be an integer, got None"),
    ("value function index 'a'", lambda F: F.value("a", (1,)), TypeError,
     "function index must be an integer, got 'a'"),
    ("served value function index None",
     lambda F: F.value(None, (1,), 1.0), TypeError,
     "function index must be an integer, got None"),
    ("replacement_greedy candidate 2.5",
     lambda F: replacement_greedy(F, [0, 2.5, 3], 2, 1), TypeError,
     "element ids must be integers, got 2.5"),
    # an unhashable id is checked before the candidates become a set
    ("replacement_greedy candidate [1]",
     lambda F: replacement_greedy(F, [[1], 2], 3, 2), TypeError,
     re.escape("element ids must be integers, got [1]")),
    ("replacement_greedy candidate np.float64",
     lambda F: replacement_greedy(F, [0, np.float64(3.0)], 2, 1), TypeError,
     "element ids must be integers"),
    ("value id 0.5", lambda F: F.value(0, (0.5,)), TypeError,
     "element ids must be integers, got 0.5"),
    # ids that do not sort: the id check names the bad one, not the sort
    ("value ids (None, 1)", lambda F: F.value(0, (None, 1)), TypeError,
     "element ids must be integers, got None"),
    ("value ids ('a', 1)", lambda F: F.value(0, ["a", 1]), TypeError,
     "element ids must be integers, got 'a'"),
    # a generator is made a tuple before the sort consumes it
    ("value ids generator (None, 1)",
     lambda F: F.value(0, (x for x in (None, 1))), TypeError,
     "element ids must be integers, got None"),
    ("marginal set {0, 'a'}", lambda F: marginal(F, 0, 1, {0, "a"}),
     TypeError, "element ids must be integers, got 'a'"),
    ("rep set {0, None}", lambda F: rep(F, 0, 1, {0, None}), TypeError,
     "element ids must be integers, got None"),
    ("nabla set {0, 'a'}", lambda F: nabla(F, 0, 1, {0, "a"}, 1.0, 2),
     TypeError, "element ids must be integers, got 'a'"),
    ("lambda_gain set {0, None} with base",
     lambda F: lambda_gain(F, 0, 1, {0, None}, 2, base=1.0), TypeError,
     "element ids must be integers, got None"),
    # a candidate already in a set at budget: refused before the base eval
    ("nabla candidate in its full set",
     lambda F: nabla(F, 0, 1, {0, 1}, 1.0, 2), ValueError,
     "candidate already in the set"),
    ("lambda_gain candidate in its full set",
     lambda F: lambda_gain(F, 0, 1, {0, 1}, 2), ValueError,
     "candidate already in the set"),
    # a NaN tau, like a negative one, would accept every element
    ("StreamState tau nan",
     lambda F: StreamState(F.m, 3, 2, 1.0, float("nan")), ValueError,
     "tau must be non-negative and finite, got nan"),
    ("StreamState tau -1.0", lambda F: StreamState(F.m, 3, 2, 1.0, -1.0),
     ValueError, "tau must be non-negative and finite, got -1.0"),
    ("StreamState tau inf",
     lambda F: StreamState(F.m, 3, 2, 1.0, float("inf")), ValueError,
     "tau must be non-negative and finite, got inf"),
    ("ThresholdManager process 0.5",
     lambda F: ThresholdManager(F, 0.5, 5, 2).process(0.5), TypeError,
     "element ids must be integers, got 0.5"),
    # a list sorts as one id, and the id check names it
    ("ThresholdManager process [1]",
     lambda F: ThresholdManager(F, 0.5, 5, 2).process([1]), TypeError,
     re.escape("element ids must be integers, got [1]")),
    ("solution_from_sets uncontained",
     lambda F: solution_from_sets(F, {0}, [{1}, {0}], 3, 2), ValueError,
     "per-function solution not contained in summary"),
    ("solution_from_sets summary over budget",
     lambda F: solution_from_sets(F, {0, 1, 2, 3}, [{0}, {1}], 3, 2),
     ValueError, "summary exceeds its budget"),
    # unchecked, its one set is summed and divided by m=2
    ("solution_from_sets one set for two functions",
     lambda F: solution_from_sets(F, {0, 1}, [{0}], 3, 2), ValueError,
     "solution has 1 per-function sets, the family has 2 functions"),
    ("evaluate_solution over budget",
     lambda F: evaluate_solution(F, TwoStageSolution(
         frozenset({0, 1, 2}), (frozenset(), frozenset()), 0.0, 2, 1)),
     ValueError, "summary exceeds its budget"),
    ("run --objective foo",
     lambda F: run_experiment(ExperimentConfig(objective="foo"), F),
     ConfigError, "unknown objective 'foo'"),
    # no value of 2 is kept for 2.0 to be served: its singleton is
    # sorted and checked
    ("ThresholdManager process 2.0 after 2",
     (lambda F: processed(ThresholdManager(F, 0.5, 5, 2), 2),
      lambda mgr: mgr.process(2.0)),
     TypeError, "element ids must be integers, got 2.0"),
]


def processed(mgr, u):
    """``mgr`` once it has processed u."""
    mgr.process(u)
    return mgr


# (entry, call on a coverage family F with the element id x): each entry
# that takes an element id, which _check_ids refuses before any eval
ID_ENTRIES = {
    "exchange": lambda F, x: exchange(F, x, StreamState(F.m, 3, 2, 1.0, 0.1)),
    "run_know_opt": lambda F, x: run_know_opt([x], F, 1.0, 3, 2),
    "marginal": lambda F, x: marginal(F, 0, x, {0}),
    "rep": lambda F, x: rep(F, 0, x, {0}),
    "nabla": lambda F, x: nabla(F, 0, x, {0}, 1.0, 2),
    "lambda_gain": lambda F, x: lambda_gain(F, 0, x, {0}, 2),
    # unchecked, a summary id outside the ground set raises after an eval
    "solution_from_sets": lambda F, x: solution_from_sets(
        F, {0, x}, [{0}, {x}], 3, 2),
    "evaluate_solution": lambda F, x: evaluate_solution(F, TwoStageSolution(
        frozenset({0, x}), (frozenset({0}), frozenset({x})), 0.0, 3, 2)),
}
BAD_IDS = [(25, ValueError, "element id 25 out of range [0, 20)"),
           (-1, ValueError, "element id -1 out of range [0, 20)"),
           (2.5, TypeError, "element ids must be integers, got 2.5")]
BAD_INPUTS += [
    (f"{name} id {x!r}", lambda F, call=call, x=x: call(F, x), error,
     re.escape(message))
    for name, call in ID_ENTRIES.items() for x, error, message in BAD_IDS]


@pytest.mark.parametrize("call, error, match", [row[1:] for row in BAD_INPUTS],
                         ids=[row[0] for row in BAD_INPUTS])
def test_bad_input_raises_its_typed_error_before_any_eval(call, error, match):
    """A row's call is called on F, or is a pair (set-up, call) whose call
    gets what its set-up makes of F."""
    F = make_synthetic("coverage", 20, 2, 0)
    arg = F
    if isinstance(call, tuple):
        setup, call = call
        arg = setup(F)
    before = F.evals
    with pytest.raises(error, match=match):
        call(arg)
    assert F.evals == before


# (argument, call on a coverage family F with the value v, kind): every seed,
# size and budget argument of BAD_INPUTS.  A seed is an integer >= 0, a size
# an integer >= 1, and a budget a number the oracle's work must not exceed.
BAD_INPUT_ARGS = [
    ("partition seed", lambda F, v: partition(20, 3, v), "seed"),
    ("replacement_distributed seed",
     lambda F, v: replacement_distributed(F, 2, 3, 2, v), "seed"),
    ("distributed_fast seed",
     lambda F, v: distributed_fast(F, 2, 0.5, 3, 2, v), "seed"),
    ("make_synthetic seed",
     lambda F, v: make_synthetic("coverage", 20, 2, v)._functions[1]((0, 5)),
     "seed"),
    ("GroundSet n", lambda F, v: GroundSet(v).n, "size"),
    ("recommend_machine_count n",
     lambda F, v: recommend_machine_count(v, 1, "fast"), "size"),
    ("recommend_machine_count ell",
     lambda F, v: recommend_machine_count(100, v, "distributed"), "size"),
    ("brute_force_opt budget",
     lambda F, v: brute_force_opt(F, 2, 1, max_evaluations=v), "budget"),
]

# None, NaN and the infinities, negatives, float-valued integers, and numpy
# floats and integers
INPUT_VALUES = st.one_of(
    st.sampled_from([None, float("nan"), float("inf"), float("-inf")]),
    st.integers(-10 ** 6, -1),
    st.integers(-3, 10 ** 6).map(float),
    st.integers(-3, 10 ** 6).map(np.float64),
    st.integers(-3, 10 ** 6).map(np.int64),
)


def expected_error(kind, v, work):
    """The typed error a ``kind`` argument of value v raises, or None."""
    if kind == "budget":
        if v is None:
            return TypeError
        return None if work <= v else OracleBudgetError
    if not isinstance(v, (int, np.integer)):
        return TypeError
    return ValueError if v < (0 if kind == "seed" else 1) else None


@settings(max_examples=150, deadline=None)
@given(arg=st.sampled_from(BAD_INPUT_ARGS), v=INPUT_VALUES)
def test_each_value_class_is_refused_or_accepted(arg, v):
    """Each refused value raises its typed error before any eval; a numpy
    integer is accepted, with the result of the same Python integer."""
    _, call, kind = arg
    F = make_synthetic("coverage", 20, 2, 0)
    error = expected_error(kind, v, estimate_work(20, 2, 1, F.m))
    before = F.evals
    if error is not None:
        with pytest.raises(error):
            call(F, v)
        assert F.evals == before
    elif isinstance(v, np.integer):
        G = make_synthetic("coverage", 20, 2, 0)
        assert call(F, v) == call(G, int(v))
        assert F.evals == G.evals
    else:
        call(F, v)


def test_numpy_integer_seeds_are_seeds():
    assert partition(20, 3, np.int64(4)) == partition(20, 3, 4)
    F, G = (make_synthetic("facility", 12, 2, s) for s in (np.int32(3), 3))
    assert F._functions[1]((0, 5)) == G._functions[1]((0, 5))


class TestMarginal:
    def test_modular(self):
        F = modular_family((3.0, 2.0))
        assert marginal(F, 0, 1, {0}) == 2.0

    def test_element_already_present(self):
        F = modular_family((3.0, 2.0))
        assert marginal(F, 0, 0, {0}) == 0.0

    def test_matches_fresh_recomputation_on_facility(self):
        F = make_synthetic("facility", 8, 1, seed=3)
        A = {0, 4}
        got = marginal(F, 0, 6, A)
        expected = F.value(0, A | {6}) - F.value(0, A)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got >= 0.0

    def test_out_of_range(self):
        F = modular_family((1.0,))
        with pytest.raises(ValueError):
            marginal(F, 0, 7, set())


class TestRep:
    def test_modular_positive_swap(self):
        F = modular_family((1.0, 3.0, 2.0))  # A={a, b}, x=c
        out = rep(F, 0, 2, {0, 1})
        assert out.replaced == 0
        assert out.gain == 1.0

    def test_tie_breaks_to_lowest_id(self):
        F = modular_family((3.0, 3.0, 1.0))
        out = rep(F, 0, 2, {0, 1})
        assert out.gain == -2.0
        assert out.replaced == 0

    def test_empty_set_rejected(self):
        F = modular_family((1.0, 2.0))
        with pytest.raises(ValueError):
            rep(F, 0, 1, set())

    def test_matches_exhaustive_swap_enumeration(self):
        F = make_synthetic("coverage", 8, 1, seed=11)
        A = {1, 3, 5}
        x = 0
        out = rep(F, 0, x, A)
        base = F.value(0, A)
        fresh = {y: F.value(0, (A - {y}) | {x}) - base for y in A}
        assert out.gain == pytest.approx(max(fresh.values()), abs=1e-9)
        assert fresh[out.replaced] == pytest.approx(out.gain, abs=1e-9)


class TestNabla:
    def test_below_threshold_is_zero(self):
        # f(A)=1, insertion gain 0.4 < 0.5 = (alpha/k) f(A)
        F = modular_family((1.0, 0.4))
        out = nabla(F, 0, 1, {0}, alpha=1.0, k=2)
        assert out.gain == 0.0
        assert out.replaced is None

    def test_boundary_passes(self):
        F = modular_family((1.0, 0.5))
        out = nabla(F, 0, 1, {0}, alpha=1.0, k=2)
        assert out.gain == 0.5

    def test_swap_at_budget(self):
        F = modular_family((1.0, 2.0))
        out = nabla(F, 0, 1, {0}, alpha=1.0, k=1)
        assert out.gain == 1.0
        assert out.replaced == 0

    def test_overfull_set_is_corruption(self):
        F = modular_family((1.0, 1.0, 1.0))
        with pytest.raises(InvariantViolation):
            nabla(F, 0, 2, {0, 1}, alpha=1.0, k=1)

    def test_gain_never_negative(self):
        F = make_synthetic("modular", 8, 1, seed=5)
        for x in range(4, 8):
            out = nabla(F, 0, x, {0, 1}, alpha=1.0, k=2)
            assert out.gain >= 0.0

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_nonpositive_alpha_fails_before_any_eval(self, alpha):
        F = modular_family((1.0, 2.0))
        before = F.evals
        with pytest.raises(ValueError, match="alpha"):
            nabla(F, 0, 1, [0], alpha, 2)
        assert F.evals == before

    def test_infinite_alpha_fails_before_any_eval(self):
        F = modular_family((1.0, 2.0))
        before = F.evals
        with pytest.raises(ValueError, match="finite"):
            nabla(F, 0, 1, [0], float("inf"), 2)
        assert F.evals == before


class TestLambdaGain:
    def test_insertion_below_budget(self):
        F = modular_family((1.0, 2.0))
        out = lambda_gain(F, 0, 1, {0}, k=2)
        assert out.gain == 2.0
        assert out.replaced is None

    def test_losing_swaps_clamp_to_zero(self):
        F = modular_family((3.0, 3.0, 1.0))
        out = lambda_gain(F, 0, 2, {0, 1}, k=2)
        assert out.gain == 0.0
        assert out.replaced is None

    def test_winning_swap(self):
        F = modular_family((1.0, 3.0, 2.0))
        out = lambda_gain(F, 0, 2, {0, 1}, k=2)
        assert out.gain == 1.0
        assert out.replaced == 0


@pytest.mark.parametrize("call, want, evals", [
    (lambda F: marginal(F, 0, 0, {0}), 0.0, 0),
    (lambda F: nabla(F, 0, 0, {0}, 1.0, 2), SwapOutcome(None, 0.0), 1),
    (lambda F: lambda_gain(F, 0, 0, {0}, 2), SwapOutcome(None, 0.0), 1),
    (lambda F: lambda_gain(F, 0, 0, {0}, 2, base=3.0),
     SwapOutcome(None, 0.0), 0),
], ids=["marginal", "nabla", "lambda_gain", "lambda_gain with base"])
def test_a_candidate_in_its_set_below_budget_gains_nothing(call, want,
                                                           evals):
    # marginal spends no eval on it; nabla and lambda_gain evaluate a
    # missing base, as for any other candidate
    F = modular_family((3.0, 2.0))
    before = F.evals
    assert call(F) == want
    assert F.evals - before == evals


class TestSetsProbe:
    """``_Sets.probe`` counts a move by lambda_gain's rule, or by nabla's
    bar when given ``step``."""

    @staticmethod
    def sets_holding(F, k, x):
        sets = core._Sets(F.m, k)
        sets.add(F, x, *sets.probe(F, x))
        return sets

    def test_a_zero_gain_swap_is_no_move(self):
        F = modular_family((1.0, 1.0))
        sets = self.sets_holding(F, 1, 0)
        assert sets.probe(F, 1) == ([None], [0.0], [1.0])

    def test_a_gain_at_the_bar_counts(self):
        # f(T) = 2 and step 0.5: the bar is 1.0, exactly the insertion gain
        F = modular_family((2.0, 1.0))
        sets = self.sets_holding(F, 2, 0)
        assert sets.probe(F, 1, 0.5) == ([None], [1.0], [3.0])


class TestEvaluateSolution:
    def test_empty_is_zero(self):
        F = modular_family((1.0, 2.0), (3.0, 4.0))
        assert evaluate_solution(F, empty_solution(2, 2, 1)) == 0.0

    def test_modular_average(self):
        F = modular_family((3.0, 1.0, 0.0), (0.0, 1.0, 3.0))
        sol = solution_from_sets(F, {0, 2}, [{0}, {2}], ell=2, k=1)
        assert sol.value == 3.0
        assert evaluate_solution(F, sol) == 3.0

    def test_rejects_uncontained_solution(self):
        F = modular_family((1.0, 2.0))
        sol = empty_solution(1, 2, 1)
        sol.per_function = (frozenset({1}),)
        with pytest.raises(ValueError):
            evaluate_solution(F, sol)

    @pytest.mark.parametrize("m", [2, 4])
    def test_rejects_a_solution_for_another_m_before_any_eval(self, m):
        """A solution built on a 3-function family has three sets; on a
        family of another size it is refused, not summed and divided by
        that family's m."""
        sol = replacement_greedy(make_synthetic("coverage", 10, 3, 2),
                                 range(10), 3, 2)
        F = make_synthetic("coverage", 10, m, 2)
        before = F.evals
        with pytest.raises(ValueError, match=f"3 per-function sets, the "
                                             f"family has {m} functions"):
            evaluate_solution(F, sol)
        assert F.evals == before

    def test_matches_fresh_recomputation(self):
        from twostage.greedy import replacement_greedy
        F = make_synthetic("coverage", 10, 3, seed=2)
        sol = replacement_greedy(F, range(10), 3, 2)
        assert sol.value == pytest.approx(evaluate_solution(F, sol), abs=1e-9)

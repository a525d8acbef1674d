import numpy as np
import pytest

from twostage.core import (GroundSet, InvariantViolation, NonFiniteValueError,
                           ObjectiveFamily, empty_solution, evaluate_solution,
                           lambda_gain, marginal, nabla, rep,
                           solution_from_sets)
from twostage.distributed import distributed_fast, replacement_distributed
from twostage.greedy import replacement_greedy
from twostage.objectives import make_synthetic
from twostage.streaming import run_know_opt, run_streaming

from conftest import (NON_FINITE, kernel_counted, modular_family,
                      poisoned_family)


class TestGroundSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSet(0)

    def test_elements(self):
        assert list(GroundSet(3).elements()) == [0, 1, 2]


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


class TestEvalMemo:
    def test_no_memo_outside_a_scope(self, counted):
        F, calls = counted
        before = F.evals
        for _ in range(3):
            assert F.value(0, (2, 1)) == 5.0
        assert (calls[0], F.evals - before) == (3, 3)
        assert F._memo is None

    def test_repeats_in_a_scope_are_counted_but_not_recomputed(self, counted):
        F, calls = counted
        before = F.evals
        with F._memo_scope():
            assert F.value(0, (2, 1)) == 5.0
            assert F.value(0, [1, 2]) == 5.0
            assert F.value(0, (3,)) == 4.0
        assert (calls[0], F.evals - before) == (2, 3)
        assert F._memo is None

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_value_raises_on_every_repeat(self, bad):
        F = poisoned_family(bad)
        before = F.evals
        with F._memo_scope():
            for _ in range(2):
                with pytest.raises(NonFiniteValueError, match="function 1"):
                    F.value(1, (3,))
            assert (3,) not in F._memo[1]
        assert F.evals - before == 2

    def test_out_of_range_ids_raise_in_a_scope(self, counted):
        F, calls = counted
        with F._memo_scope():
            F.value(0, (1,))
            with pytest.raises(ValueError, match="function index"):
                F.value(1, (1,))
            with pytest.raises(ValueError, match="element id"):
                F.value(0, (1, 4))
            assert F._memo == [{(1,): 2.0}]
        assert calls[0] == 1

    def test_nested_scope_restores_the_outer_memo(self, counted):
        F, calls = counted
        with F._memo_scope():
            F.value(0, (1,))
            outer = F._memo
            with F._memo_scope():
                assert F._memo == [{}]
                F.value(0, (1,))
                F.value(0, (2,))
            assert F._memo is outer
            assert outer == [{(1,): 2.0}]
            F.value(0, (1,))
        assert calls[0] == 3
        assert F._memo is None


class TestServedValue:
    """``value``'s internal ``served`` argument: a block kernel's value for
    the set, counted as one eval and returned in place of f_i's."""

    def test_finite_value_is_counted_without_calling_f(self, counted):
        F, calls = counted
        before = F.evals
        assert F.value(0, (2, 1), 7.5) == 7.5
        assert (calls[0], F.evals - before) == (0, 1)

    def test_bad_indices_raise_before_it_is_served(self, counted):
        F, calls = counted
        with pytest.raises(ValueError, match="function index"):
            F.value(1, (1,), 2.0)
        with pytest.raises(ValueError, match="element id"):
            F.value(0, (1, 4), 2.0)
        assert calls[0] == 0

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

    def test_matches_fresh_recomputation(self):
        from twostage.greedy import replacement_greedy
        F = make_synthetic("coverage", 10, 3, seed=2)
        sol = replacement_greedy(F, range(10), 3, 2)
        assert sol.value == pytest.approx(evaluate_solution(F, sol), abs=1e-9)

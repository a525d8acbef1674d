import numpy as np
import pytest

from twostage.core import NonFiniteValueError, evaluate_solution
from twostage.distributed import pseudo_streaming
from twostage.objectives import make_synthetic
from twostage.oracle import brute_force_opt
from twostage.streaming import (StreamState, ThresholdManager, exchange,
                                run_know_opt, run_streaming)

from conftest import NON_FINITE, modular_family, poisoned_family


def fresh_state(F, ell, k, tau, alpha=1.0):
    return StreamState.fresh(F.m, ell, k, alpha, tau)


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

    @pytest.mark.parametrize("ell,k", [(2, 0), (0, 1), (2, 3)])
    def test_rejects_bad_budgets(self, ell, k):
        F = make_synthetic("modular", 5, 2, seed=0)
        with pytest.raises(ValueError, match="budget"):
            run_know_opt(range(5), F, opt=1.0, ell=ell, k=k)

    def test_guarantee_on_random_instances(self):
        for seed in range(10):
            F = make_synthetic("coverage", 10, 3, seed=seed)
            opt = brute_force_opt(F, None, 3, 2).value
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

    def test_fresh_state_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            StreamState.fresh(2, 3, 2, 0.0, 1.0)


class TestThresholdManager:
    def test_active_grid_example(self):
        # delta lands at exactly 3 -> powers of two in [3/24, 3]
        F = modular_family((3.0, 0.0))
        mgr = ThresholdManager(F, epsilon=1.0, ell=2, k=1, beta=6.0)
        mgr.update_thresholds(0)
        assert mgr.delta == 3.0
        taus = sorted(inst.tau for inst in mgr.instances.values())
        assert taus == [0.125, 0.25, 0.5, 1.0, 2.0]

    def test_unchanged_delta_keeps_instances(self):
        F = modular_family((3.0, 1.0))
        mgr = ThresholdManager(F, epsilon=1.0, ell=2, k=1, beta=6.0)
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
            replay = StreamState.fresh(F.m, 3, 2, 1.0, tau)
            for u in range(t):
                assert not exchange(F, u, replay)


class TestRunStreaming:
    def test_guarantee_on_random_instances(self):
        for seed in range(10):
            F = make_synthetic("modular", 10, 3, seed=seed)
            opt = brute_force_opt(F, None, 3, 2).value
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

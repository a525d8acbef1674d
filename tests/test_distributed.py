import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.core import (NonFiniteValueError, empty_solution,
                           evaluate_solution)
from twostage.distributed import (distributed_fast, partition,
                                  pseudo_streaming, recommend_machine_count,
                                  replacement_distributed)
from twostage.greedy import replacement_greedy
from twostage.objectives import make_synthetic
from twostage.streaming import run_streaming

from conftest import NON_FINITE, modular_family, poisoned_family


class TestPartition:
    def test_single_machine(self):
        assert partition(10, 1, seed=0) == [list(range(10))]

    def test_deterministic(self):
        assert partition(100, 4, seed=9) == partition(100, 4, seed=9)

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError):
            partition(10, 0, seed=0)

    def test_binomial_concentration(self):
        n, M = 10000, 4
        counts = [len(part) for part in partition(n, M, seed=5)]
        assert len(counts) == M
        sigma = (n * (1 / M) * (1 - 1 / M)) ** 0.5
        assert all(abs(c - n / M) <= 4 * sigma for c in counts)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 300), M=st.integers(1, 10 ** 9),
       seed=st.integers(0, 2 ** 63))
def test_partition_matches_per_element_draw(n, M, seed):
    # one uniform machine draw per element from the seed's spawned stream;
    # buckets of the machines that drew any id, in machine order
    stream = np.random.SeedSequence(seed).spawn(1)[0]
    draw = np.random.default_rng(stream).integers(0, M, n)
    buckets = {}
    for e, machine in enumerate(draw.tolist()):
        buckets.setdefault(machine, []).append(e)
    assert partition(n, M, seed) == [buckets[l] for l in sorted(buckets)]


@pytest.mark.parametrize("solve", [
    lambda F, M: replacement_distributed(F, M, 3, 2, seed=1),
    lambda F, M: distributed_fast(F, M, 1.0, 3, 2, seed=1),
], ids=["distributed", "fast"])
def test_idle_machines_cost_no_memory(solve):
    # only the machines that draw an element are materialised, so the peak
    # does not grow with M
    F = make_synthetic("modular", 20, 2, seed=0)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        solve(F, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 2 ** 20


class TestReplacementDistributed:
    def test_single_machine_dominates_plain_greedy(self):
        F = make_synthetic("coverage", 12, 3, seed=2)
        full = replacement_greedy(F, range(12), 3, 2)
        sol = replacement_distributed(F, 1, 3, 2, seed=0)
        assert sol.value >= full.value - 1e-9

    def test_solution_invariants(self):
        F = make_synthetic("facility", 12, 3, seed=4)
        sol = replacement_distributed(F, 3, 3, 2, seed=1)
        sol.check()
        assert sol.value == pytest.approx(evaluate_solution(F, sol), abs=1e-9)

    def test_deterministic(self):
        F = make_synthetic("coverage", 12, 3, seed=8)
        a = replacement_distributed(F, 3, 3, 2, seed=5)
        b = replacement_distributed(F, 3, 3, 2, seed=5)
        assert (a.summary, a.per_function, a.value) == \
               (b.summary, b.per_function, b.value)


class TestPseudoStreaming:
    def test_input_order_is_irrelevant(self):
        F = make_synthetic("coverage", 10, 3, seed=0)
        part = [7, 1, 4, 2, 9]
        base = pseudo_streaming(part, F, 1.0, 3, 2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            shuffled = list(part)
            rng.shuffle(shuffled)
            assert pseudo_streaming(shuffled, F, 1.0, 3, 2) == base

    def test_singleton_partition(self):
        F = make_synthetic("modular", 6, 2, seed=3)
        out = pseudo_streaming([4], F, 1.0, 3, 2)
        assert out
        for _, sol in out:
            assert sol.summary <= {4}

    def test_irrelevant_elements_do_not_change_output(self):
        # the merge-consistency property behind the fast variant
        F = make_synthetic("coverage", 8, 2, seed=12)
        A = [0, 2, 3, 6]
        base = pseudo_streaming(A, F, 1.0, 3, 2)
        picked = set()
        for _, sol in base:
            picked |= sol.summary
        quiet = [e for e in range(8) if e not in A and e not in picked
                 and pseudo_streaming(sorted(A + [e]), F, 1.0, 3, 2) == base]
        if quiet:
            assert pseudo_streaming(sorted(A + quiet), F, 1.0, 3, 2) == base


class TestDistributedFast:
    def test_single_machine_dominates_streaming(self):
        F = make_synthetic("coverage", 12, 3, seed=6)
        stream_sol = run_streaming(range(12), F, epsilon=1.0, ell=3, k=2)
        sol = distributed_fast(F, 1, 1.0, 3, 2, seed=0)
        assert sol.value >= stream_sol.value - 1e-9

    def test_solution_invariants(self):
        F = make_synthetic("facility", 12, 3, seed=9)
        sol = distributed_fast(F, 3, 1.0, 3, 2, seed=2)
        sol.check()
        assert sol.value == pytest.approx(evaluate_solution(F, sol), abs=1e-9)

    def test_merge_candidates_bounded(self):
        F = make_synthetic("coverage", 20, 3, seed=10)
        M, ell, k, eps = 3, 3, 2, 1.0
        total = 0
        bound_per_instance = None
        for part in partition(20, M, seed=4):
            for _, sol in pseudo_streaming(part, F, eps, ell, k):
                total += len(sol.summary)
        from twostage.streaming import ThresholdManager
        bound = M * ell * ThresholdManager(F, eps, ell, k).instance_bound()
        assert total <= bound


class TestRecommendMachineCount:
    def test_distributed_rule(self):
        assert recommend_machine_count(10000, 25, "distributed") == 20

    def test_fast_rule(self):
        assert recommend_machine_count(10000, 25, "fast") == 4

    def test_floors_at_one(self):
        assert recommend_machine_count(1, 1, "distributed") == 1
        assert recommend_machine_count(1, 1, "fast") == 1

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'quantum'"):
            recommend_machine_count(10, 2, "quantum")


@pytest.mark.parametrize("solve", [
    lambda F: replacement_distributed(F, 3, 3, 2, 0),
    lambda F: distributed_fast(F, 3, 0.5, 3, 2, 0),
], ids=["distributed", "fast"])
def test_no_worker_summary_gives_the_empty_solution(solve):
    """On a family whose only function is 0 every worker's summary is
    empty, so there is nothing to merge."""
    assert solve(modular_family((0.0,) * 8)) == empty_solution(1, 3, 2)


def test_expected_guarantees_on_a_small_mean():
    # acceptance runs the full 30-seed sweep; this is a cheap sanity check
    F = make_synthetic("coverage", 10, 3, seed=0)
    from twostage.oracle import brute_force_opt
    opt = brute_force_opt(F, 3, 2).value
    vals_d = [replacement_distributed(F, 3, 3, 2, seed=s).value for s in range(5)]
    vals_f = [distributed_fast(F, 3, 1.0, 3, 2, seed=s).value for s in range(5)]
    assert np.mean(vals_d) >= 0.216 * opt - 1e-9
    assert np.mean(vals_f) >= 0.107 * opt - 1e-9


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_objective_raises(bad):
    with pytest.raises(NonFiniteValueError, match="function 1"):
        distributed_fast(poisoned_family(bad), 2, 0.5, ell=3, k=2, seed=0)

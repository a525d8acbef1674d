"""End-to-end acceptance checks.

Each test prints one PASS line when its criterion holds (run with ``-s`` to
see them).  Criteria 1-5 share a suite of 102 seeded random instances
(n=10, ell=3, k=2, m=3; modular/coverage/facility mixed) with brute-forced
optima.  Expectation-style guarantees (criterion 3) are checked as means
over 30 seeds per instance, never per run.
"""

import math
import time

import numpy as np
import pytest

from twostage.distributed import (distributed_fast, pseudo_streaming,
                                  recommend_machine_count,
                                  replacement_distributed)
from twostage.greedy import replacement_greedy
from twostage.objectives import (Point, Region, facility_convenience,
                                 facility_family, make_synthetic)
from twostage.oracle import brute_force_opt
from twostage.streaming import ThresholdManager, run_know_opt, run_streaming

N, ELL, K, M_FUNCS = 10, 3, 2, 3
KINDS = ("modular", "coverage", "facility")
SLACK = 1e-9


def _report(criterion, detail=""):
    print(f"\ncriterion {criterion}: PASS {detail}".rstrip())


def _stream_order(n, seed):
    order = list(range(n))
    np.random.default_rng(seed).shuffle(order)
    return order


@pytest.fixture(scope="module")
def suite():
    instances = []
    for idx in range(102):
        F = make_synthetic(KINDS[idx % 3], N, M_FUNCS, seed=1000 + idx)
        opt = brute_force_opt(F, None, ELL, K).value
        assert opt > 0
        instances.append((idx, F, opt))
    return instances


def test_criterion_1_greedy_guarantee(suite):
    ratio = 0.4323  # 0.5 * (1 - 1/e^2), truncated
    start = time.perf_counter()
    for idx, F, opt in suite:
        sol = replacement_greedy(F, range(N), ELL, K)
        assert sol.value >= ratio * opt - SLACK, f"instance {idx}"
        assert sol.value <= opt + SLACK
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"({len(suite)} instances, {elapsed:.2f}s)")


def test_criterion_2_streaming_guarantees(suite):
    for idx, F, opt in suite:
        order = _stream_order(N, idx)
        sol = run_streaming(order, F, epsilon=1.0, ell=ELL, k=K)
        assert sol.value >= opt / 7.0 - SLACK, f"instance {idx} (guessing)"
        known = run_know_opt(order, F, opt=opt, ell=ELL, k=K,
                             alpha=1.0, beta=6.0)
        assert known.value >= opt / 6.0 - SLACK, f"instance {idx} (known opt)"
    _report(2, f"({len(suite)} instances, bounds OPT/7 and OPT/6)")


def test_criterion_3_distributed_expectation(suite):
    seeds = range(30)
    M = 3
    for idx, F, opt in suite[:20]:
        mean_d = np.mean([replacement_distributed(F, M, ELL, K, seed=s).value
                          for s in seeds])
        assert mean_d >= 0.216 * opt - SLACK, f"instance {idx} (greedy workers)"
        mean_f = np.mean([distributed_fast(F, M, 1.0, ELL, K, seed=s).value
                          for s in seeds])
        assert mean_f >= 0.107 * opt - SLACK, f"instance {idx} (fast workers)"
    _report(3, "(20 instances x 30 seeds, means vs 0.216/0.107 OPT)")


def test_criterion_4_streaming_lemma_invariants(suite):
    # instrumented runs raise InvariantViolation on any lemma breach:
    # kept-value ratio, per-element gain vs delta, per-acceptance increase
    # of at least tau, and the live-instance bound
    for idx, F, opt in suite:
        order = _stream_order(N, idx)
        run_streaming(order, F, epsilon=1.0, ell=ELL, k=K, instrument=True)
        run_know_opt(order, F, opt=opt, ell=ELL, k=K, instrument=True)
    _report(4, f"({len(suite)} instrumented runs, zero violations)")


def test_criterion_5_singleton_bounds(suite):
    for idx, F, opt in suite:
        delta = max(F.singleton_average(u) for u in range(N))
        assert delta - SLACK <= opt <= ELL * delta + SLACK, f"instance {idx}"
    _report(5, "(delta <= OPT <= ell * delta on every instance)")


def test_criterion_6_order_consistency(suite):
    # pseudo-streaming ignores presentation order entirely
    rng = np.random.default_rng(0)
    for idx, F, _ in suite[:5]:
        part = list(range(N))
        base = pseudo_streaming(part, F, 1.0, ELL, K)
        for _ in range(20):
            shuffled = list(part)
            rng.shuffle(shuffled)
            assert pseudo_streaming(shuffled, F, 1.0, ELL, K) == base

    # replay check: elements that individually leave the greedy output
    # unchanged also leave it unchanged collectively
    def greedy_key(F, elems):
        sol = replacement_greedy(F, elems, ELL, K)
        return (sol.summary, sol.per_function)

    checked = 0
    draw = 0
    while checked < 50:
        F = make_synthetic(KINDS[draw % 3], 8, M_FUNCS, seed=5000 + draw)
        sub_rng = np.random.default_rng(draw)
        A = sorted(sub_rng.choice(8, size=4, replace=False).tolist())
        base = greedy_key(F, A)
        quiet = [e for e in range(8) if e not in A
                 and greedy_key(F, A + [e]) == base]
        draw += 1
        if not quiet:
            continue
        assert greedy_key(F, A + quiet) == base, f"draw {draw}"
        checked += 1
    _report(6, "(20 permutations x 5 instances; 50 replay draws)")


def test_criterion_7_analytic_constants():
    p = Point(40.7, -74.0)
    assert facility_convenience(p, p) == 1.0

    # closed form 2 - 2/(1 + e^{-200 * 0.01}) evaluated independently
    expected = 2.0 - 2.0 / (1.0 + math.exp(-2.0))
    assert abs(expected - 0.238406) < 1e-6
    got = facility_convenience(Point(0.0, 0.0), Point(0.01, 0.0))
    assert abs(got - 0.238406) < 1e-6

    alpha_greedy = 0.5 * (1.0 - 1.0 / math.e ** 2)
    assert alpha_greedy == pytest.approx(0.43233235838169365, abs=1e-15)
    assert alpha_greedy > 0.4323

    # known-opt bound min{alpha(beta-1)/(beta((alpha+1)^2+alpha)), 1/beta}
    alpha, beta = 1.0, 6.0
    bound = min(alpha * (beta - 1) / (beta * ((alpha + 1) ** 2 + alpha)),
                1 / beta)
    assert bound == pytest.approx(1.0 / 6.0, abs=1e-15)
    _report(7, "(convenience kernel and approximation constants)")


@pytest.mark.slow
def test_criterion_8_scaling_smoke():
    ell, k, m, eps = 25, 5, 10, 1.0
    sizes = (1000, 2000, 4000)

    # nested instances: one point sample and one region set, ground sets
    # are prefixes, so only n varies between runs
    rng = np.random.default_rng(17)
    coords = rng.uniform(0.0, 0.03, size=(max(sizes), 2))
    points = [Point(float(x), float(y)) for x, y in coords]
    members = rng.choice(max(sizes), size=(m, 10), replace=False)
    regions = [Region(tuple(points[int(e)] for e in sorted(row)))
               for row in members]

    counts = {}
    families = {}
    for n in sizes:
        F = facility_family(points[:n], regions)
        families[n] = F
        before = F.evals
        mgr = ThresholdManager(F, eps, ell, k)
        mgr.run(_stream_order(n, 17))
        counts[n] = F.evals - before
    for small, large in zip(sizes, sizes[1:]):
        n_ratio = large / small
        ratio = counts[large] / counts[small]
        assert 0.75 * n_ratio <= ratio <= 1.25 * n_ratio, \
            f"eval growth {ratio:.2f} vs n growth {n_ratio:.2f}"

    F = families[4000]
    start = time.perf_counter()
    greedy_sol = replacement_greedy(F, range(4000), ell, k)
    greedy_secs = time.perf_counter() - start

    M = recommend_machine_count(4000, ell, "fast")
    start = time.perf_counter()
    fast_sol = distributed_fast(F, M, eps, ell, k, seed=17)
    fast_secs = time.perf_counter() - start

    assert fast_secs < greedy_secs
    assert fast_sol.value <= greedy_sol.value + 1e-6  # sanity, not a bound
    _report(8, f"(streaming evals {counts}; fast {fast_secs:.1f}s < "
               f"greedy {greedy_secs:.1f}s at M={M})")

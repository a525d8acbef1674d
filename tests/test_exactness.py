"""The fast kernels and gain primitives against the expressions they replaced.

The reference implementations below are the library's earlier, plainer
code.  The current code must agree with them bit for bit (``==``, not
``approx``) and, for the gain primitives, spend exactly the same evals;
golden runs pin whole-solver outputs and eval counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage.core import (InvariantViolation, SwapOutcome, TwoStageSolution,
                           check_budgets, evaluate_solution, lambda_gain,
                           marginal, nabla, rep, solution_from_sets)
from twostage.distributed import distributed_fast, replacement_distributed
from twostage.greedy import replacement_greedy
from twostage.objectives import (Point, Region, exemplar_family,
                                 facility_family, make_synthetic)
from twostage.oracle import brute_force_opt
from twostage.streaming import (TOL, StreamState, ThresholdManager,
                                _check_trace_bound, exchange)

# ---------------------------------------------------------------------------
# reference kernels


def ref_facility_functions(points, regions):
    coords = np.asarray(points, dtype=float)
    functions = []
    with np.errstate(under="ignore"):
        for region in regions:
            rc = np.asarray(region.members, dtype=float)
            d = np.abs(rc[:, None, :] - coords[None, :, :]).sum(axis=2)
            z = np.exp(-200.0 * d)
            mat = 2.0 * z / (1.0 + z)

            def f(ids, mat=mat):
                if not ids:
                    return 0.0
                return float(mat[:, list(ids)].max(axis=1).sum())
            functions.append(f)
    return functions


def ref_exemplar_functions(vectors, class_count):
    functions = []
    for i in range(class_count):
        omega = np.flatnonzero(vectors[:, i] > 0)
        members = vectors[omega]
        anchor = np.linalg.norm(members, axis=1)
        dmat = np.linalg.norm(members[:, None, :] - vectors[None, :, :], axis=2)
        in_class = set(int(e) for e in omega)

        def f(ids, anchor=anchor, dmat=dmat, in_class=in_class):
            chosen = [e for e in ids if e in in_class]
            if not chosen:
                return 0.0
            best = np.minimum(anchor, dmat[:, chosen].min(axis=1))
            return float(anchor.mean() - best.mean())
        functions.append(f)
    return functions


def ref_coverage_value(masks, ids):
    acc = 0
    for e in ids:
        acc |= masks[e]
    return float(bin(acc).count("1"))


def ref_coverage_masks(n, m, seed):
    """The per-bit string construction of make_synthetic's coverage masks."""
    rng = np.random.default_rng(seed)
    universe = max(16, 2 * n)
    out = []
    for _ in range(m):
        hits = rng.random(size=(n, universe)) < 0.3
        out.append(tuple(
            int("".join("1" if b else "0" for b in row), 2) if row.any() else 0
            for row in hits))
    return out


def id_sets(n):
    return st.lists(st.integers(0, n - 1), max_size=n, unique=True)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_facility_kernel_is_bit_identical(seed, data):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 0.03, (n, 2))]
    regions = [Region(tuple(points[int(e)] for e in
                            rng.choice(n, size=min(n, 6), replace=False)))
               for _ in range(3)]
    F = facility_family(points, regions)
    refs = ref_facility_functions(points, regions)
    ids = tuple(sorted(data.draw(id_sets(n))))
    for i, ref in enumerate(refs):
        assert F.value(i, ids) == ref(ids)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_exemplar_kernel_is_bit_identical(seed, data):
    rng = np.random.default_rng(seed)
    n, classes = int(rng.integers(1, 30)), 4
    vectors = rng.integers(0, 3, (n, classes)).astype(float)
    vectors[0] = 1.0  # every class has a member
    F = exemplar_family(vectors, classes)
    refs = ref_exemplar_functions(vectors, classes)
    ids = tuple(sorted(data.draw(id_sets(n))))
    for i, ref in enumerate(refs):
        assert F.value(i, ids) == ref(ids)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_coverage_kernel_is_bit_identical(seed, data):
    n = data.draw(st.integers(1, 40))
    F = make_synthetic("coverage", n, 2, seed)
    ids = tuple(sorted(data.draw(id_sets(n))))
    for i, spec in enumerate(F.ground.payload):
        assert F.value(i, ids) == ref_coverage_value(spec.masks, ids)


@pytest.mark.parametrize("n", [1, 7, 8, 11, 13, 300])
def test_coverage_masks_match_string_construction(n):
    F = make_synthetic("coverage", n, 3, seed=n)
    assert [spec.masks for spec in F.ground.payload] == \
        ref_coverage_masks(n, 3, seed=n)


# ---------------------------------------------------------------------------
# reference gain primitives


def ref_check_element(F, x):
    if not 0 <= x < F.ground.n:
        raise ValueError(f"element {x} out of range [0, {F.ground.n})")


def ref_marginal(F, i, x, A, base=None):
    ref_check_element(F, x)
    A = set(A)
    if x in A:
        return 0.0
    if base is None:
        base = F.value(i, A)
    return F.value(i, A | {x}) - base


def ref_rep(F, i, x, A, base=None):
    ref_check_element(F, x)
    A = set(A)
    if not A:
        raise ValueError("rep requires a non-empty set; use the insertion path")
    if x in A:
        raise ValueError("candidate already in the set")
    if base is None:
        base = F.value(i, A)
    best_y = None
    best_gain = None
    for y in sorted(A):
        gain = F.value(i, (A - {y}) | {x}) - base
        if best_gain is None or gain > best_gain:
            best_gain = gain
            best_y = y
    return SwapOutcome(best_y, best_gain)


def ref_nabla(F, i, x, A, alpha, k, base=None):
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    A = set(A)
    if len(A) > k:
        raise InvariantViolation("per-function solution larger than its budget")
    if base is None:
        base = F.value(i, A)
    threshold = (alpha / k) * base
    if len(A) < k:
        g = ref_marginal(F, i, x, A, base=base)
        if g >= threshold:
            return SwapOutcome(None, g)
        return SwapOutcome(None, 0.0)
    out = ref_rep(F, i, x, A, base=base)
    if out.gain >= threshold and out.gain > 0:
        return out
    return SwapOutcome(None, 0.0)


def ref_lambda_gain(F, i, x, A, k, base=None):
    A = set(A)
    if len(A) > k:
        raise InvariantViolation("per-function solution larger than its budget")
    if base is None:
        base = F.value(i, A)
    if len(A) < k:
        return SwapOutcome(None, ref_marginal(F, i, x, A, base=base))
    out = ref_rep(F, i, x, A, base=base)
    if out.gain > 0:
        return out
    return SwapOutcome(None, 0.0)


def outcome(F, fn, *args, **kwargs):
    """(result or exception type, evals spent) of one primitive call."""
    before = F.evals
    try:
        result = fn(F, *args, **kwargs)
    except (ValueError, InvariantViolation) as exc:
        result = type(exc)
    return result, F.evals - before


PRIMITIVES = {
    "marginal": (marginal, ref_marginal, lambda alpha, k: {}),
    "rep": (rep, ref_rep, lambda alpha, k: {}),
    "nabla": (nabla, ref_nabla, lambda alpha, k: {"alpha": alpha, "k": k}),
    "lambda_gain": (lambda_gain, ref_lambda_gain, lambda alpha, k: {"k": k}),
}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(PRIMITIVES)),
       kind=st.sampled_from(["modular", "coverage", "facility"]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_gain_primitives_match_reference(name, kind, seed, data):
    n = 8
    F = make_synthetic(kind, n, 2, seed)
    new, ref, extra = PRIMITIVES[name]
    k = data.draw(st.integers(1, 4))
    A = set(data.draw(st.lists(st.integers(0, n - 1), max_size=k,
                               unique=True)))
    x = data.draw(st.integers(0, n - 1))
    i = data.draw(st.integers(0, F.m - 1))
    alpha = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    kwargs = extra(alpha, k)
    if data.draw(st.booleans()):
        kwargs["base"] = F.value(i, A)
    got = outcome(F, new, i, x, A, **kwargs)
    want = outcome(F, ref, i, x, A, **kwargs)
    assert got == want


# ---------------------------------------------------------------------------
# reference drivers: per-function sets probed through the public primitives


def ref_exchange(F, u, state, delta=None):
    """The exchange rule with set-valued ``state.T``, one ``nabla`` per function."""
    if u in state.S or len(state.S) >= state.ell:
        return False
    m = F.m
    T, base, alpha, k = state.T, state.base, state.alpha, state.k
    gains = [nabla(F, i, u, T[i], alpha, k, base=base[i]) for i in range(m)]
    avg = sum([g.gain for g in gains]) / m
    if delta is not None and avg > delta + TOL:
        raise InvariantViolation(
            f"average gain {avg} exceeds the running singleton maximum {delta}")
    if avg < state.tau:
        return False

    before = state.total()
    state.S.add(u)
    for i, g in enumerate(gains):
        if g.gain > 0:
            if g.replaced is not None:
                T[i].discard(g.replaced)
            T[i].add(u)
            base[i] = F.value(i, T[i])
            if state.trace is not None:
                state.trace[i].add(u)
    if state.trace is not None:
        _check_trace_bound(F, state)
        if state.total() - before < state.tau - TOL:
            raise InvariantViolation(
                "accepted element increased the objective by less than tau")
    return True


def ref_replacement_greedy(F, candidates, ell, k):
    """Replacement greedy with set-valued T_i, one ``lambda_gain`` per function."""
    cands = sorted(set(candidates))
    if not cands:
        raise ValueError("candidate set must be non-empty")
    check_budgets(ell, k)
    m = F.m
    S = set()
    T = [set() for _ in range(m)]
    base = [0.0] * m
    for _ in range(ell):
        best_total = 0.0
        best_x = None
        best_outs = None
        for x in cands:
            if x in S:
                continue
            outs = [lambda_gain(F, i, x, T[i], k, base=base[i])
                    for i in range(m)]
            total = sum([o.gain for o in outs])
            if total > best_total:
                best_total = total
                best_x = x
                best_outs = outs
        if best_x is None:
            break
        S.add(best_x)
        for i, out in enumerate(best_outs):
            if out.gain > 0:
                if out.replaced is not None:
                    T[i].discard(out.replaced)
                T[i].add(best_x)
                base[i] = F.value(i, T[i])
    return solution_from_sets(F, S, T, ell, k)


def state_view(state):
    return (state.S, [tuple(sorted(t)) for t in state.T], state.base,
            state.trace)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["modular", "coverage", "facility"]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_exchange_matches_reference_driver(kind, seed, data):
    n = 8
    F = make_synthetic(kind, n, data.draw(st.integers(1, 3)), seed)
    k = data.draw(st.integers(1, 3))
    ell = data.draw(st.integers(k, k + 3))
    alpha = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    instrument = data.draw(st.booleans())
    top = max(F.singleton_average(u) for u in range(n))
    tau = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0])) * top
    delta = data.draw(st.sampled_from([None, top, 0.3 * top]))
    stream = data.draw(st.lists(st.integers(0, n - 1), max_size=20))
    new = StreamState.fresh(F.m, ell, k, alpha, tau, instrument=instrument)
    ref = StreamState.fresh(F.m, ell, k, alpha, tau, instrument=instrument)
    ref.T = [set() for _ in range(F.m)]
    for u in stream:
        got = outcome(F, exchange, u, new, delta)
        want = outcome(F, ref_exchange, u, ref, delta)
        assert got == want
        assert state_view(new) == state_view(ref)
        assert all(t == tuple(sorted(t)) for t in new.T)
        if got[0] is InvariantViolation:
            break


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["modular", "coverage", "facility"]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_replacement_greedy_matches_reference_driver(kind, seed, data):
    n = 8
    F = make_synthetic(kind, n, data.draw(st.integers(1, 3)), seed)
    k = data.draw(st.integers(1, 3))
    ell = data.draw(st.integers(k, k + 3))
    cands = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=12))
    got = outcome(F, replacement_greedy, cands, ell, k)
    want = outcome(F, ref_replacement_greedy, cands, ell, k)
    assert got == want


# ---------------------------------------------------------------------------
# golden whole-solver runs, numbers taken from the reference implementation


def test_golden_threshold_manager_run():
    F = make_synthetic("coverage", 60, 4, seed=7)
    order = list(range(60))
    np.random.default_rng(3).shuffle(order)
    before = F.evals
    mgr = ThresholdManager(F, 0.2, 8, 3).run(order)
    sol = mgr.best_solution()
    assert F.evals - before == 10268
    assert sol.value == 84.75
    assert sorted(sol.summary) == [0, 1, 22, 38, 39, 58]
    assert [sorted(t) for t in sol.per_function] == \
        [[0, 22, 39], [0, 1, 22], [0, 22, 38], [0, 22, 58]]
    assert (mgr.peak_stored, mgr.max_instances) == (93, 22)


def test_golden_replacement_greedy_run():
    F = make_synthetic("facility", 40, 5, seed=11)
    before = F.evals
    sol = replacement_greedy(F, range(40), 8, 3)
    assert F.evals - before == 3241
    assert sol.value == 5.6308436754490625
    assert sorted(sol.summary) == [4, 5, 7, 29, 31, 33, 35, 37]
    assert [sorted(t) for t in sol.per_function] == \
        [[33, 35, 37], [5, 29, 31], [4, 29, 31], [4, 7, 31], [4, 33, 35]]


# (kind, family seed, M, solver, elements) -> (evals, value, summary, sets).
# M=40 is more machines than the 24 elements, so most machines are empty.
# Elements 23, 1, 5, ... are an unsorted odd subset with one duplicate.
ODD = (23, 1, 5, 3, 9, 7, 5, 11, 13, 15, 17, 19, 21)
GOLDEN_DISTRIBUTED = [
    ("coverage", 2, 1, "distributed", None, 460, 33.0, [6, 14, 21, 22],
     [[14, 22], [6, 21], [14, 22]]),
    ("coverage", 2, 1, "fast", None, 1261, 29.333333333333332, [1, 4, 14],
     [[1, 14], [1, 14], [4, 14]]),
    ("coverage", 2, 3, "distributed", None, 544, 32.333333333333336,
     [2, 13, 14, 16], [[2, 14], [2, 16], [13, 16]]),
    ("coverage", 2, 3, "fast", None, 1404, 32.666666666666664,
     [1, 2, 14, 16], [[2, 14], [1, 16], [14, 16]]),
    ("coverage", 2, 40, "distributed", None, 611, 33.0, [6, 14, 21, 22],
     [[14, 22], [6, 21], [14, 22]]),
    ("coverage", 2, 40, "fast", None, 2042, 33.0, [6, 14, 21, 22],
     [[14, 22], [6, 21], [14, 22]]),
    ("coverage", 2, 3, "distributed", ODD, 295, 29.333333333333332,
     [1, 15, 19, 21], [[1, 15], [1, 21], [19, 21]]),
    ("coverage", 2, 3, "fast", ODD, 751, 29.0, [1, 5, 15, 21],
     [[1, 5], [1, 21], [15, 21]]),
    ("facility", 4, 1, "distributed", None, 462, 3.987782903537749,
     [5, 6, 19, 20], [[6, 19], [5, 20], [6, 19]]),
    ("facility", 4, 1, "fast", None, 748, 3.971489703937267, [0, 6, 12, 22],
     [[6, 22], [0, 12], [6, 22]]),
    ("facility", 4, 3, "distributed", None, 563, 3.987782903537749,
     [5, 6, 19, 20], [[6, 19], [5, 20], [6, 19]]),
    ("facility", 4, 3, "fast", None, 1394, 4.047937405836056, [5, 6, 10, 19],
     [[6, 19], [5, 10], [6, 19]]),
    ("facility", 4, 40, "distributed", None, 631, 3.987782903537749,
     [5, 6, 19, 20], [[6, 19], [5, 20], [6, 19]]),
    ("facility", 4, 40, "fast", None, 2048, 3.987782903537749, [5, 6, 19, 20],
     [[6, 19], [5, 20], [6, 19]]),
]


@pytest.mark.parametrize(
    "kind,fseed,M,solver,elements,evals,value,summary,sets",
    GOLDEN_DISTRIBUTED)
def test_golden_distributed_runs(kind, fseed, M, solver, elements, evals,
                                 value, summary, sets):
    F = make_synthetic(kind, 24, 3, seed=fseed)
    before = F.evals
    if solver == "distributed":
        sol = replacement_distributed(F, M, 4, 2, seed=7, elements=elements)
    else:
        sol = distributed_fast(F, M, 0.5, 4, 2, seed=7, elements=elements)
    assert F.evals - before == evals
    assert sol.value == value
    assert sorted(sol.summary) == summary
    assert [sorted(t) for t in sol.per_function] == sets


def test_brute_force_opt_returns_a_checked_solution():
    F = make_synthetic("coverage", 7, 2, seed=1)
    sol = brute_force_opt(F, None, 3, 2)
    assert isinstance(sol, TwoStageSolution)
    sol.check()
    assert (sol.ell, sol.k) == (3, 2)
    assert sol.value == evaluate_solution(F, sol)

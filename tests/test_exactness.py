"""The fast kernels and gain primitives against the expressions they replaced.

The reference implementations below are the library's earlier, plainer
code.  The current code must agree with them bit for bit (``==``, not
``approx``) and, for the gain primitives, spend exactly the same evals;
golden runs pin whole-solver outputs and eval counts.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import streaming
from twostage.core import (InvariantViolation, ObjectiveFamily, SwapOutcome,
                           TwoStageSolution, _Sets, check_budgets,
                           evaluate_solution, lambda_gain, marginal, nabla,
                           rep, solution_from_sets)
from twostage.distributed import distributed_fast, replacement_distributed
from twostage.greedy import replacement_greedy
from twostage.objectives import (_DIST_BLOCK_FLOATS, Point, Region,
                                 _exemplar_tables, exemplar_family,
                                 facility_family, make_synthetic)
from twostage.oracle import brute_force_opt
from twostage.streaming import (TOL, StreamState, ThresholdManager,
                                _check_trace_bound, exchange, run_know_opt)

from conftest import float_features, kernel_counted

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


def ref_exemplar_tables(vectors, class_count):
    """The per-class build of exemplar_family's clipped distance tables."""
    out = []
    for i in range(class_count):
        omega = np.flatnonzero(vectors[:, i] > 0)
        members = vectors[omega]
        anchor = np.linalg.norm(members, axis=1)
        table = np.linalg.norm(members[:, None, :] - members[None, :, :], axis=2)
        np.minimum(table, anchor, out=table)
        out.append((omega, table, anchor))
    return out


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([12, 60, 170]),
       data=st.data())
def test_exemplar_kernel_is_bit_identical_on_real_features(seed, n, data):
    # class 0 holds every element, so it is wider than 8 (one unrolled block
    # of add.reduce) and, at n=170, wider than 128 (one pairwise block);
    # a quarter of the rows are copies of others, so distance minima tie
    rng = np.random.default_rng(seed)
    classes = 3
    vectors = float_features(n, classes, seed)
    vectors[:, 0] = rng.uniform(0.05, 3.0, n)
    copies = rng.integers(0, n, n // 4)
    vectors[rng.integers(0, n, n // 4)] = vectors[copies]
    assert (vectors[:, 0] > 0).sum() == n
    F = exemplar_family(vectors, classes)
    refs = ref_exemplar_functions(vectors, classes)
    for _ in range(4):
        ids = tuple(sorted(data.draw(
            st.lists(st.integers(0, n - 1), max_size=6, unique=True))))
        for i, ref in enumerate(refs):
            assert F.value(i, ids) == ref(ids)
    everything = tuple(range(n))
    for i, ref in enumerate(refs):
        assert F.value(i, everything) == ref(everything)


def table_features(rng, n, columns, class_count, integral, one_label):
    """Counts or real features at a random scale, with duplicated rows and,
    for n > 1, trailing rows that belong to no class.  With ``one_label``
    each row is in at most one class, so classes barely overlap."""
    scale = 10.0 ** int(rng.integers(-3, 4))
    if integral:
        vectors = rng.integers(0, 3, (n, columns)).astype(float) * scale
    else:
        vectors = rng.uniform(0.0, 2.0, (n, columns)) * scale
        vectors[rng.random((n, columns)) < 0.4] = 0.0
    if one_label:
        keep = rng.integers(0, class_count, n)
        vectors[:, :class_count][np.arange(class_count) != keep[:, None]] = 0.0
    vectors[rng.integers(0, n, n // 4)] = vectors[rng.integers(0, n, n // 4)]
    outside = n // 20 + 1 if n > 1 else 0
    vectors[n - outside:, :class_count] = 0.0
    for i in range(class_count):
        if not (vectors[:, i] > 0).any():
            vectors[rng.integers(n - outside), i] = scale
    return vectors


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), integral=st.booleans(),
       shape=st.sampled_from([(1, 1, 1, False), (2, 3, 1, False),
                              (9, 4, 2, False), (30, 5, 5, True),
                              (60, 8, 3, False), (60, 8, 8, True),
                              (200, 20, 20, False), (800, 20, 2, True)]))
def test_exemplar_tables_match_per_class_build(seed, integral, shape):
    # shape is (n, columns, class_count, one label per row).  At n=200 the
    # classes overlap and one pass over all used elements runs in at least
    # three row blocks; at n=800 they do not, and each class's own pass
    # runs in at least three
    n, columns, class_count, one_label = shape
    vectors = table_features(np.random.default_rng(seed), n, columns,
                             class_count, integral, one_label)
    member = vectors[:, :class_count] > 0
    used = int(member.any(axis=1).sum())
    widths = member.sum(axis=0)
    assert used < n or n == 1
    shared = used ** 2 <= int((widths ** 2).sum())
    if n == 200:
        assert shared
        assert -(-used // (_DIST_BLOCK_FLOATS // (used * columns))) >= 3
    if n == 800:
        assert not shared
        w = int(widths.max())
        assert -(-w // (_DIST_BLOCK_FLOATS // (w * columns))) >= 3
    got = _exemplar_tables(vectors, class_count)
    want = ref_exemplar_tables(vectors, class_count)
    assert len(got) == len(want) == class_count
    for (omega, table, anchor), (r_omega, r_table, r_anchor) in zip(got, want):
        assert np.array_equal(omega, r_omega)
        assert np.array_equal(table, r_table)
        assert np.array_equal(anchor, r_anchor)
        assert anchor.mean() == r_anchor.mean()


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
    new = StreamState(F.m, ell, k, alpha, tau, instrument=instrument)
    ref = StreamState(F.m, ell, k, alpha, tau, instrument=instrument)
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


# region widths that take each branch of numpy's pairwise sum: the plain
# loop below 8, the 8-way unrolled loop without and with a remainder, and the
# recursive split above 128
REGION_WIDTHS = [1, 8, 9, 17, 129, 200]


def wide_facility(seed, n, m, data):
    """A facility family whose regions are REGION_WIDTHS wide, not n-bounded."""
    rng = np.random.default_rng(seed)
    points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 0.03, (n, 2))]
    regions = [Region(tuple(Point(float(x), float(y)) for x, y in rng.uniform(
        0, 0.03, (data.draw(st.sampled_from(REGION_WIDTHS)), 2))))
        for _ in range(m)]
    return facility_family(points, regions)


def wide_exemplar(seed, n, m, data):
    """An exemplar family whose classes are REGION_WIDTHS wide, over n
    elements with one more feature than classes."""
    rng = np.random.default_rng(seed)
    vectors = np.zeros((n, m + 1))
    vectors[:, m] = rng.uniform(-1.0, 1.0, n)
    for c in range(m):
        width = data.draw(st.sampled_from(REGION_WIDTHS))
        members = rng.choice(n, size=width, replace=False)
        vectors[members, c] = rng.uniform(0.05, 2.0, width)
    return exemplar_family(vectors, m)


def assert_block_is_exact(F, n, data):
    """F._block equals f_i set by set, ``==``, for drawn keys and blocks of
    candidates: insertions for every key, swaps for non-empty ones."""
    for _ in range(4):  # several calls: the kernels must keep no state
        i = data.draw(st.integers(0, F.m - 1))
        key = tuple(sorted(data.draw(st.lists(
            st.integers(0, n - 1), max_size=4, unique=True))))
        xs = data.draw(st.lists(st.integers(0, n - 1).filter(
            lambda e: e not in key), min_size=1, max_size=40))
        f = F._functions[i]
        assert F._block(i, key, xs, False).tolist() == [
            f(tuple(sorted(key + (x,)))) for x in xs]
        if key:
            assert F._block(i, key, xs, True).tolist() == [
                [f(tuple(sorted(key[:j] + key[j + 1:] + (x,))))
                 for j in range(len(key))] for x in xs]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_facility_swap_kernel_is_bit_identical(seed, data):
    n = 40
    assert_block_is_exact(wide_facility(seed, n, 2, data), n, data)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_exemplar_block_kernel_is_bit_identical(seed, data):
    # n = 210 leaves a class of 200 members room for non-members; keys and
    # candidates outside narrow classes are the usual draw there
    n = 210
    assert_block_is_exact(wide_exemplar(seed, n, 2, data), n, data)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["facility", "exemplar"]), data=st.data())
def test_swap_kernel_solvers_match_the_scalar_path(seed, kind, data):
    """Greedy, its merges and its workers, and both streaming solvers, on a
    family with a block kernel equal the same objectives without it, evals
    included."""
    n = data.draw(st.integers(4, 14))
    m = data.draw(st.integers(1, 3))
    F = (wide_facility(seed, n, m, data) if kind == "facility"
         else exemplar_family(float_features(n, m, seed), m))
    G = ObjectiveFamily(F.ground, F._functions)
    assert F._block is not None and G._block is None
    k = data.draw(st.integers(1, 4))
    ell = data.draw(st.integers(k, k + 3))
    cands = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=2 * n))
    M = data.draw(st.integers(1, 4))
    opt = data.draw(st.sampled_from([0.1, 1.0, 4.0]))
    instrument = data.draw(st.booleans())

    def know_opt(F):
        return run_know_opt(cands, F, opt, ell, k, instrument=instrument)

    def manager(F):
        mgr = ThresholdManager(F, 0.5, ell, k, instrument=instrument)
        mgr.run(cands)
        return mgr.all_solutions(), mgr.peak_stored, mgr.max_instances

    solves = [
        (replacement_greedy, (cands, ell, k)),
        (replacement_distributed, (M, ell, k, seed)),
        (distributed_fast, (M, 0.5, ell, k, seed)),
        (know_opt, ()),
        (manager, ()),
    ]
    for solver, args in solves:
        # TwoStageSolution equality is summary, sets, value and budgets
        assert outcome(F, solver, *args) == outcome(G, solver, *args)
        assert F._memo is None


@pytest.mark.parametrize("kind", ["facility", "exemplar"])
def test_single_element_probes_never_call_the_block_kernel(kind):
    """Only greedy's candidate blocks use the kernel: run_know_opt, a bare
    exchange and ThresholdManager probe each element set by set."""
    F = stream_family(kind, 30, 3, 2)
    kernel = F._block
    calls = []

    def counted(i, key, xs, swap):
        calls.append((i, key, list(xs), swap))
        return kernel(i, key, xs, swap)

    F._block = counted
    # a low alpha lets swaps through, so at-budget probes are made too
    sol = run_know_opt(range(30), F, 0.5, 6, 2, alpha=0.1)
    assert any(len(T) == 2 for T in sol.per_function)
    state = StreamState(F.m, 30, 2, 0.1, 0.0)
    for u in range(30):
        exchange(F, u, state)
    assert any(len(T) == 2 for T in state.T)
    ThresholdManager(F, 0.5, 6, 2).run(range(30))
    assert calls == []
    replacement_greedy(F, range(30), 6, 2)
    assert calls


class RefThresholdManager(ThresholdManager):
    """The manager without the per-element memo: every eval calls f_i."""

    def process(self, u):
        self.update_thresholds(u)
        for l in sorted(self.instances):
            exchange(self.F, u, self.instances[l], delta=self.delta)
        self.max_instances = max(self.max_instances, len(self.instances))
        self.peak_stored = max(
            self.peak_stored,
            sum(len(state.S) for state in self.instances.values()))


@contextmanager
def spy(owner, name, record):
    """Patch ``owner.name`` to pass its positional arguments, as one tuple,
    to ``record`` before each call."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        record(args)
        return original(*args, **kwargs)

    with mock.patch.object(owner, name, wrapper):
        yield


def stream_family(kind, n, m, seed):
    if kind == "exemplar":
        return exemplar_family(float_features(n, m, seed), m)
    return make_synthetic(kind, n, m, seed)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["modular", "coverage", "facility", "exemplar"]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_memoised_threshold_manager_matches_reference(kind, seed, data):
    n = 10
    m = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    ell = data.draw(st.integers(k, k + 3))
    epsilon = data.draw(st.sampled_from([0.2, 1.0]))
    alpha = data.draw(st.sampled_from([0.5, 1.0]))
    instrument = data.draw(st.booleans())
    stream = data.draw(st.lists(st.integers(0, n - 1), max_size=25))
    F, calls = kernel_counted(stream_family(kind, n, m, seed))
    G, ref_calls = kernel_counted(stream_family(kind, n, m, seed))
    runs = []
    probes, evaluating = [], []
    for manager, fam in ((ThresholdManager, F), (RefThresholdManager, G)):
        before = fam.evals
        mgr = manager(fam, epsilon, ell, k, alpha=alpha,
                      instrument=instrument)
        if manager is ThresholdManager:
            def evaluates(args):
                _, u, state = args[:3]
                evaluating.append(u not in state.S and len(state.S) < ell)

            with spy(_Sets, "probe", probes.append), \
                    spy(streaming, "exchange", evaluates):
                mgr.run(stream)
        else:
            mgr.run(stream)
        runs.append((
            mgr.best_solution(), mgr.all_solutions(),
            {l: (state.S, state.T, state.base, state.trace)
             for l, state in mgr.instances.items()},
            mgr.peak_stored, mgr.max_instances, fam.evals - before))
    assert runs[0] == runs[1]
    assert F._memo is None
    # an element that creates an instance evaluates each (i, {u}) for the
    # singleton average and again in the new instance's first exchange
    assert calls[0] <= ref_calls[0]
    assert (calls[0] < ref_calls[0]) == (mgr.max_instances >= 1)
    # one probe per group of states that evaluates u; a positive delta
    # creates at least two empty instances at once, and they share one
    assert len(probes) <= sum(evaluating)
    assert (len(probes) < sum(evaluating)) == (mgr.max_instances >= 2)


def grouped_run(F, order):
    """Run ThresholdManager(F, 0.2, 6, 2) over ``order``, recording per
    element the summaries of the states that evaluate it, the probes made,
    and each state's token before its exchange with the exchange's result."""
    mgr = ThresholdManager(F, 0.2, 6, 2)
    update = mgr.update_thresholds
    steps = []

    def snapshot(u):
        update(u)
        steps.append({"evaluating": [frozenset(s.S)
                                     for s in mgr.instances.values()
                                     if u not in s.S and len(s.S) < s.ell],
                      "probes": 0, "exchanges": []})

    def probed(args):
        steps[-1]["probes"] += 1

    original = streaming.exchange

    def exchange_spy(F, u, state, **kwargs):
        token = state.group
        accepted = original(F, u, state, **kwargs)
        steps[-1]["exchanges"].append((token, accepted))
        return accepted

    mgr.update_thresholds = snapshot
    with spy(_Sets, "probe", probed), \
            mock.patch.object(streaming, "exchange", exchange_spy):
        for u in order:
            mgr.process(u)
            states = list(mgr.instances.values())
            steps[-1]["tokens_match_sets"] = all(
                (a.group is b.group) == (a.S == b.S)
                and (a.group is not b.group or (a.T, a.base) == (b.T, b.base))
                for a in states for b in states)
    return mgr, steps


class MemoThresholdManager(ThresholdManager):
    """The manager with the per-element memo but no groups: every instance
    that can take an element probes it."""

    def process(self, u):
        with self.F._memo_scope():
            RefThresholdManager.process(self, u)


def test_threshold_manager_probes_once_per_group():
    """Instances holding equal sets probe each element once between them;
    the outputs and counts are the reference's, and the followers' replays
    are all served by the memo."""
    F, calls = kernel_counted(make_synthetic("coverage", 40, 3, seed=2))
    G = make_synthetic("coverage", 40, 3, seed=2)
    H, memo_calls = kernel_counted(G)
    order = list(range(40))
    np.random.default_rng(2).shuffle(order)
    before = F.evals
    mgr, steps = grouped_run(F, order)
    evals, kernel_calls = F.evals - before, calls[0]
    before = G.evals
    ref = RefThresholdManager(G, 0.2, 6, 2).run(order)
    ref_evals = G.evals - before
    assert (mgr.best_solution(), mgr.all_solutions(), evals,
            mgr.peak_stored, mgr.max_instances) == \
        (ref.best_solution(), ref.all_solutions(), ref_evals,
         ref.peak_stored, ref.max_instances)
    MemoThresholdManager(H, 0.2, 6, 2).run(order)
    assert kernel_calls == memo_calls[0]
    # the first element creates many empty instances, and one probe serves
    assert len(steps[0]["evaluating"]) > 1 and steps[0]["probes"] == 1
    # the stream has no repeats, so equal summaries mean one group
    for step in steps:
        assert step["probes"] == len(set(step["evaluating"]))
    assert sum(s["probes"] for s in steps) < \
        sum(len(s["evaluating"]) for s in steps) / 2


def test_split_groups_never_share_again():
    """Members of one group that accept an element leave it together and the
    ones that reject keep it: after every element, two live states share a
    token exactly when they hold the same S, T and base."""
    F = make_synthetic("coverage", 40, 3, seed=2)
    order = list(range(40))
    np.random.default_rng(2).shuffle(order)
    mgr, steps = grouped_run(F, order)
    splits = 0
    for step in steps:
        results = {}
        for token, accepted in step["exchanges"]:
            results.setdefault(token, set()).add(accepted)
        splits += sum(len(r) == 2 for r in results.values())
        assert step["tokens_match_sets"]
    assert splits >= 3


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


# exemplar clustering on 48 real-valued feature vectors in 6 classes;
# solver -> (evals, value, summary, sets), taken with the earlier kernel that
# kept a distance row for every ground element and clipped on every eval
GOLDEN_EXEMPLAR = [
    ("greedy", 4483, 0.9426028895105514, [0, 17, 23, 26, 28, 32, 40, 41],
     [[28, 32, 41], [26, 28, 32], [17, 28, 40], [23, 28, 32], [32, 40, 41],
      [0, 23, 40]]),
    ("fast", 5475, 0.941892408668516, [0, 6, 7, 14, 17, 21, 32, 34],
     [[0, 6, 21], [0, 7, 32], [7, 14, 17], [6, 7, 17], [0, 6, 32],
      [0, 14, 34]]),
]


@pytest.mark.parametrize("solver,evals,value,summary,sets", GOLDEN_EXEMPLAR)
def test_golden_exemplar_runs(solver, evals, value, summary, sets):
    F = exemplar_family(float_features(48, 6, seed=5), 6)
    before = F.evals
    if solver == "greedy":
        sol = replacement_greedy(F, range(48), 8, 3)
    else:
        sol = distributed_fast(F, 3, 0.5, 8, 3, seed=7)
    assert F.evals - before == evals
    assert sol.value == value
    assert sorted(sol.summary) == summary
    assert [sorted(t) for t in sol.per_function] == sets


# (kind, family seed, M, solver) -> (evals, value, summary, sets).
# M=40 is more machines than the 24 elements, so most machines are empty.
GOLDEN_DISTRIBUTED = [
    ("coverage", 2, 1, "distributed", 460, 33.0, [6, 14, 21, 22],
     [[14, 22], [6, 21], [14, 22]]),
    ("coverage", 2, 1, "fast", 1261, 29.333333333333332, [1, 4, 14],
     [[1, 14], [1, 14], [4, 14]]),
    ("coverage", 2, 3, "distributed", 544, 32.333333333333336,
     [2, 13, 14, 16], [[2, 14], [2, 16], [13, 16]]),
    ("coverage", 2, 3, "fast", 1404, 32.666666666666664,
     [1, 2, 14, 16], [[2, 14], [1, 16], [14, 16]]),
    ("coverage", 2, 40, "distributed", 611, 33.0, [6, 14, 21, 22],
     [[14, 22], [6, 21], [14, 22]]),
    ("coverage", 2, 40, "fast", 2042, 33.0, [6, 14, 21, 22],
     [[14, 22], [6, 21], [14, 22]]),
    ("facility", 4, 1, "distributed", 462, 3.987782903537749,
     [5, 6, 19, 20], [[6, 19], [5, 20], [6, 19]]),
    ("facility", 4, 1, "fast", 748, 3.971489703937267, [0, 6, 12, 22],
     [[6, 22], [0, 12], [6, 22]]),
    ("facility", 4, 3, "distributed", 563, 3.987782903537749,
     [5, 6, 19, 20], [[6, 19], [5, 20], [6, 19]]),
    ("facility", 4, 3, "fast", 1394, 4.047937405836056, [5, 6, 10, 19],
     [[6, 19], [5, 10], [6, 19]]),
    ("facility", 4, 40, "distributed", 631, 3.987782903537749,
     [5, 6, 19, 20], [[6, 19], [5, 20], [6, 19]]),
    ("facility", 4, 40, "fast", 2048, 3.987782903537749, [5, 6, 19, 20],
     [[6, 19], [5, 20], [6, 19]]),
]


# The ids keep the "None" that a since-removed element-subset column (unset
# in these rows) put there, so each row's id names the same run as before.
@pytest.mark.parametrize(
    "kind,fseed,M,solver,evals,value,summary,sets", GOLDEN_DISTRIBUTED,
    ids=[f"{kind}-{fseed}-{M}-{solver}-None-{evals}-{value}-summary{i}-sets{i}"
         for i, (kind, fseed, M, solver, evals, value, _, _)
         in enumerate(GOLDEN_DISTRIBUTED)])
def test_golden_distributed_runs(kind, fseed, M, solver, evals, value,
                                 summary, sets):
    F = make_synthetic(kind, 24, 3, seed=fseed)
    before = F.evals
    if solver == "distributed":
        sol = replacement_distributed(F, M, 4, 2, seed=7)
    else:
        sol = distributed_fast(F, M, 0.5, 4, 2, seed=7)
    assert F.evals - before == evals
    assert sol.value == value
    assert sorted(sol.summary) == summary
    assert [sorted(t) for t in sol.per_function] == sets


def test_brute_force_opt_returns_a_checked_solution():
    F = make_synthetic("coverage", 7, 2, seed=1)
    sol = brute_force_opt(F, 3, 2)
    assert isinstance(sol, TwoStageSolution)
    sol.check()
    assert (sol.ell, sol.k) == (3, 2)
    assert sol.value == evaluate_solution(F, sol)

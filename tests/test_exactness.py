"""The fast kernels and gain primitives against the expressions they replaced.

The reference implementations below are the library's earlier, plainer
code.  The current code must agree with them bit for bit (``==``, not
``approx``) and, for the gain primitives, spend exactly the same evals;
golden runs pin whole-solver outputs and eval counts.
"""

import gc
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostage import streaming
from twostage.core import (InvariantViolation, NonFiniteValueError,
                           ObjectiveFamily, SwapOutcome,
                           TwoStageSolution, _moves, _Sets, check_budgets,
                           evaluate_solution, lambda_gain, marginal, nabla,
                           rep, solution_from_sets)
from twostage.distributed import distributed_fast, replacement_distributed
from twostage.greedy import replacement_greedy
from twostage.objectives import (_DIST_BLOCK_FLOATS, Point, Region,
                                 _exemplar_tables, exemplar_family,
                                 exemplar_value, facility_family,
                                 make_synthetic)
from twostage.oracle import brute_force_opt
from twostage.streaming import (TOL, StreamState, ThresholdManager,
                                _check_accepted, exchange, run_know_opt)

from conftest import (expected_served, float_features, followers,
                      kernel_counted, recorded_run, scalar_block)

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
            return float((anchor - best).mean())
        functions.append(f)
    return functions


def ref_min_form_exemplar_functions(vectors, class_count):
    """The same functions as ``ref_exemplar_functions`` in exact arithmetic,
    computed as the anchors' mean less the mean of the nearest distances,
    which rounds differently in the last bits."""
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


def assert_min_form(F, vectors, class_count, sets):
    """F's values on ``sets`` equal the min-form reference to rel 1e-12, so
    the max-sum reference that they equal bit for bit is the same
    objective."""
    refs = ref_min_form_exemplar_functions(vectors, class_count)
    for ids in sets:
        for i, ref in enumerate(refs):
            assert F.value(i, ids) == pytest.approx(ref(ids), rel=1e-12,
                                                    abs=0.0)


def ref_exemplar_tables(vectors, class_count):
    """The per-class build of exemplar_family's similarity tables, without
    their zero row."""
    out = []
    for i in range(class_count):
        omega = np.flatnonzero(vectors[:, i] > 0)
        members = vectors[omega]
        anchor = np.linalg.norm(members, axis=1)
        dist = np.linalg.norm(members[:, None, :] - members[None, :, :], axis=2)
        out.append((omega, anchor - np.minimum(dist, anchor)))
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
    assert_min_form(F, vectors, classes, [ids])


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
    sets = [tuple(sorted(data.draw(
        st.lists(st.integers(0, n - 1), max_size=6, unique=True))))
        for _ in range(4)] + [tuple(range(n))]
    for ids in sets:
        for i, ref in enumerate(refs):
            assert F.value(i, ids) == ref(ids)
    assert_min_form(F, vectors, classes, sets)


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
    rng = np.random.default_rng(seed)
    vectors = table_features(rng, n, columns, class_count, integral,
                             one_label)
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
    # the shared layout is one (|U| + 1, |U|) table, the other one per
    # class; a table's last row is zeros
    tables = {id(table): table for _, table, _, _ in got}
    if shared:
        assert [t.shape for t in tables.values()] == [(used + 1, used)]
    else:
        assert sorted(t.shape for t in tables.values()) == \
            sorted((w + 1, w) for w in widths)
    assert all(not table[-1].any() for table in tables.values())
    for (omega, table, rows, cols), (r_omega, r_table) in zip(got, want):
        assert np.array_equal(omega, r_omega)
        assert (cols is None) == (table.shape[1] == len(omega))
        own = table[rows] if cols is None else table[np.ix_(rows, cols)]
        assert np.array_equal(own, r_table)
    # the family on these tables is the min-form objective, on sets in
    # and across the classes
    F = exemplar_family(vectors, class_count)
    sets = [tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            for size in (1, min(n, 3), min(n, 8))]
    assert_min_form(F, vectors, class_count, sets)


@pytest.mark.parametrize("one_label", [False, True],
                         ids=["shared table", "per-class tables"])
def test_exemplar_singletons_equal_exemplar_value(one_label):
    # f_i((e,)) is served from the values filled at build time; every e,
    # in the class or not, gets exemplar_value's number, with the shared
    # table's class columns or the class's own table
    vectors = table_features(np.random.default_rng(3), 90, 6, 4, False,
                             one_label)
    tables = _exemplar_tables(vectors, 4)
    assert (len({id(table) for _, table, _, _ in tables}) == 1) != one_label
    assert any(cols is not None for _, _, _, cols in tables) != one_label
    F = exemplar_family(vectors, 4)
    none = vectors[:0]
    for i, (omega, _, _, _) in enumerate(tables):
        members = vectors[omega]
        for e in range(len(vectors)):
            selected = vectors[[e]] if e in omega else none
            assert F.value(i, (e,)) == exemplar_value(members, selected)


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
    if x in A and len(A) == k:  # refused before the base eval
        raise ValueError("candidate already in the set")
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
    if x in A and len(A) == k:  # refused before the base eval
        raise ValueError("candidate already in the set")
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
        _check_accepted(F, state, before, state.tau, state.alpha)
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
    """F._block's fills equal f_i set by set, ``==``, for drawn keys and
    blocks of candidates: insertions for every key, swaps for non-empty
    ones."""
    for _ in range(4):  # several calls: the kernels must keep no state
        i = data.draw(st.integers(0, F.m - 1))
        key = tuple(sorted(data.draw(st.lists(
            st.integers(0, n - 1), max_size=4, unique=True))))
        xs = data.draw(st.lists(st.integers(0, n - 1).filter(
            lambda e: e not in key), min_size=1, max_size=40))
        f = F._functions[i]
        assert F._block(i, [key])(xs).tolist() == [
            [f(tuple(sorted(key + (x,))))] for x in xs]
        if key:
            swaps = [key[:j] + key[j + 1:] for j in range(len(key))]
            assert F._block(i, swaps)(xs).tolist() == [
                [f(tuple(sorted(base + (x,)))) for base in swaps] for x in xs]


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


def disjoint_exemplar(seed, n, m, data):
    """An exemplar family of m disjoint classes, each REGION_WIDTHS wide
    up to n // m, over n elements with one more feature than classes.
    Disjoint classes always get a table each, and most ids are outside
    any one class."""
    rng = np.random.default_rng(seed)
    vectors = np.zeros((n, m + 1))
    vectors[:, m] = rng.uniform(-1.0, 1.0, n)
    order = rng.permutation(n)
    for c in range(m):
        width = data.draw(st.sampled_from(
            [w for w in REGION_WIDTHS if w <= n // m]))
        members = order[c * (n // m):c * (n // m) + width]
        vectors[members, c] = rng.uniform(0.05, 2.0, width)
    return exemplar_family(vectors, m)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_exemplar_block_kernel_is_bit_identical_on_disjoint_classes(seed,
                                                                    data):
    # n = 300 over two classes lets one be 129 wide
    n = 300
    assert_block_is_exact(disjoint_exemplar(seed, n, 2, data), n, data)


def assert_one_fill_serves_every_block(F, n, data):
    """One probe-table entry's fill (``F._block(i, bases)``), used on
    several blocks of candidates, equals f_i set by set, ``==``, on each:
    returned, and written into a strided view of a (rows, m, k) block, as
    ``_Sets._block_values`` has it write.  Budgets of 1 and empty keys make
    the empty base; candidates repeat, and on exemplar most are outside a
    narrow class, so they share its zero row."""
    i = data.draw(st.integers(0, F.m - 1))
    k = data.draw(st.integers(1, 4))
    key = tuple(sorted(data.draw(st.lists(
        st.integers(0, n - 1), max_size=k, unique=True))))
    bases = _moves(key, k)[0]
    fill = F._block(i, bases)
    f = F._functions[i]
    others = [e for e in range(n) if e not in key]
    for _ in range(3):
        xs = data.draw(st.lists(st.sampled_from(others), max_size=30))
        want = [[f(tuple(sorted(b + (x,)))) for b in bases] for x in xs]
        assert fill(xs).tolist() == want
        block = np.full((len(xs), 2, k + 1), np.nan)
        view = block[:, 1, :len(bases)]
        assert fill(xs, view) is view
        assert view.tolist() == want
        assert np.isnan(block[:, 0]).all() and np.isnan(
            block[:, 1, len(bases):]).all()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_facility_fill_serves_several_blocks_bit_identically(seed, data):
    n = 40
    assert_one_fill_serves_every_block(wide_facility(seed, n, 2, data), n,
                                       data)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_exemplar_fill_serves_several_blocks_bit_identically(seed, data):
    n = 210
    assert_one_fill_serves_every_block(wide_exemplar(seed, n, 2, data), n,
                                       data)


WIDE, SOLO, OUTSIDE = 200, 3, (225, 226, 227, 228, 229)


def kernel_shapes_family(shared=True):
    """An exemplar family over 230 elements: class 0 holds the first WIDE
    of them, class 1 only SOLO, and OUTSIDE are in neither.  Unless
    ``shared``, SOLO leaves class 0, so the classes are disjoint and each
    gets its own table."""
    rng = np.random.default_rng(7)
    vectors = np.zeros((230, 3))
    vectors[:, 2] = rng.uniform(-1.0, 1.0, 230)
    vectors[:WIDE, 0] = rng.uniform(0.05, 2.0, WIDE)
    vectors[SOLO, 1] = 1.5
    if not shared:
        vectors[SOLO, 0] = 0.0
    return exemplar_family(vectors, 2)


# (case, function, key, budget, candidates): the probe-table entries
# (``_moves``) and candidate blocks that a drawn block rarely takes
KERNEL_SHAPES = [
    ("no candidates", 0, (1, 2), 3, []),
    ("no candidates, swaps", 0, (1, 2), 2, []),
    ("no candidate in the class", 0, (1, 2, 225), 3, list(OUTSIDE)),
    ("no candidate in the class, empty key", 0, (), 3, list(OUTSIDE)),
    ("no candidate in the class, memberless base", 0, (7, 225), 2,
     list(OUTSIDE)),
    ("every candidate in the class", 0, (1, 2, 5), 3, [9, 40, 8, 199, 150]),
    ("every candidate in the class, memberless base", 0, (1, 225), 2,
     [9, 40, 8]),
    ("one candidate in the class", 0, (1, 2, 225), 3, [10]),
    ("memberless key, mixed candidates", 0, (226, 227), 3,
     [225, 10, 228, 11, 12]),
    ("empty key, mixed candidates", 0, (), 3, [225, 10, 228, 11, 12]),
    ("memberless base among others", 0, (1, 225, 226), 3,
     [227, 30, 31, 229]),
    ("class of width 1, insertion", 1, (), 3, [SOLO, 0, 225]),
    ("class of width 1, swaps", 1, (SOLO, 225), 2, [0, 226, 1]),
    ("class of width 1, its member alone", 1, (0, 225), 2, [SOLO]),
]


def assert_block_shape(F, i, key, k, xs):
    f = F._functions[i]
    bases = _moves(key, k)[0]
    got = F._block(i, bases)(xs)
    assert got.shape == (len(xs), len(bases))
    assert got.tolist() == [[f(tuple(sorted(b + (x,)))) for b in bases]
                            for x in xs]


@pytest.mark.parametrize("i, key, k, xs", [row[1:] for row in KERNEL_SHAPES],
                         ids=[row[0] for row in KERNEL_SHAPES])
def test_exemplar_block_kernel_shapes(i, key, k, xs):
    assert_block_shape(kernel_shapes_family(), i, key, k, xs)


@pytest.mark.parametrize("i, key, k, xs", [row[1:] for row in KERNEL_SHAPES],
                         ids=[row[0] for row in KERNEL_SHAPES])
def test_exemplar_block_kernel_shapes_on_per_class_tables(i, key, k, xs):
    assert_block_shape(kernel_shapes_family(shared=False), i, key, k, xs)


# the cases that do not turn on class membership: no candidates, an empty
# key, one base and swaps
FACILITY_SHAPES = [row for row in KERNEL_SHAPES if row[0] in (
    "no candidates", "no candidates, swaps", "empty key, mixed candidates",
    "memberless key, mixed candidates", "memberless base among others")]


@pytest.mark.parametrize("i, key, k, xs", [row[1:] for row in FACILITY_SHAPES],
                         ids=[row[0] for row in FACILITY_SHAPES])
def test_facility_block_kernel_shapes(i, key, k, xs):
    """Facility's block kernel, the max-sum core over its ids as rows, on
    the shapes of the exemplar cases, ids and all."""
    assert_block_shape(make_synthetic("facility", 230, 2, seed=7), i, key, k,
                       xs)


def test_exemplar_block_kernel_gives_a_memberless_set_zero():
    """A candidate outside the class against a base with no class member:
    f_i of a set with no member is exactly 0.0, its zero rows' sum."""
    F = kernel_shapes_family()
    got = F._block(0, _moves((1, 225), 2)[0])([226, 10, 227])
    assert got[0, 0] == got[2, 0] == 0.0  # against (225,)
    assert got[0, 1] == got[2, 1] == F._functions[0]((1,)) > 0.0


def test_exemplar_block_kernel_holds_two_candidate_arrays():
    """At 60 candidates in the class, 3 bases and width 200, the kernel's
    transient peak is at most two (hits, width) arrays plus its output,
    with slack for the small arrays and lists; a third would exceed it.
    numpy's broadcasting ``np.minimum`` also takes a buffer of up to
    ``np.getbufsize()`` elements (64 KiB by default) for the call."""
    F = kernel_shapes_family()
    xs = list(range(100, 160))
    bases = _moves((1, 2, 3), 3)[0]
    F._block(0, bases)(xs)  # warm up
    gc.collect()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = F._block(0, bases)(xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (60, 3)
    rows = 60 * WIDE * 8
    buffer = np.getbufsize() * out.itemsize
    assert peak - start <= 2 * rows + out.nbytes + buffer + 16 * 1024


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


@pytest.mark.parametrize("kind", ["facility", "exemplar"])
def test_single_element_probes_never_call_the_block_kernel(kind):
    """Only greedy's candidate blocks and long-lived streaming groups use
    the kernel: run_know_opt, a bare exchange, and ThresholdManager on a
    stream too short for any group to reach the lookahead's price probe
    each element set by set."""
    F = stream_family(kind, 30, 3, 2)
    kernel = F._block
    calls = []

    def counted(i, bases):
        calls.append((i, bases))
        return kernel(i, bases)

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
    """The manager as the paper states it: each live exponent l has its own
    ``StreamState`` at tau = (1+epsilon)**l, which plain ``exchange``
    processes, with no probe dict, no shared states and no lookahead, so
    every probe eval calls f_i (or F's row kernel)."""

    def update_thresholds(self, u):
        average = self.F.singleton_average(u)
        if average > self.delta:
            self.delta = average
            grid, old = 1.0 + self.epsilon, self.instances
            self.instances = {
                l: old[l] if l in old else StreamState(
                    self.F.m, self.ell, self.k, self.alpha, grid ** l,
                    instrument=self.instrument)
                for l in self._active_range()}

    def process(self, u):
        self.update_thresholds(u)
        for l in sorted(self.instances):
            exchange(self.F, u, self.instances[l], delta=self.delta)
        self.max_instances = max(self.max_instances, len(self.instances))
        self.peak_stored = max(
            self.peak_stored,
            sum(len(state.S) for state in self.instances.values()))

    def run(self, stream):
        for u in stream:
            self.process(u)
        return self


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
def test_threshold_manager_matches_reference(kind, seed, data):
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
    for manager, fam in ((ThresholdManager, F), (RefThresholdManager, G)):
        before = fam.evals
        mgr = manager(fam, epsilon, ell, k, alpha=alpha,
                      instrument=instrument)
        if manager is ThresholdManager:
            steps = recorded_run(mgr, stream)
        else:
            mgr.run(stream)
        runs.append((
            mgr.best_solution(), mgr.all_solutions(),
            {l: (state.S, state.T, state.base, state.trace)
             for l, state in mgr.instances.items()},
            mgr.peak_stored, mgr.max_instances, fam.evals - before))
    assert runs[0] == runs[1]
    # an element that creates an instance evaluates each (i, {u}) for the
    # singleton average and again in the new instance's first exchange
    assert calls[0] <= ref_calls[0]
    assert (calls[0] < ref_calls[0]) == (mgr.max_instances >= 1)
    # one probe per run of states that evaluates u; a positive delta
    # creates at least two empty instances at once, and they share one
    probes = evaluating = 0
    for step in steps:
        takers = [s for _, s in sorted(step["live"].items())
                  if step["u"] not in s.S and len(s.S) < ell]
        assert [s for s, *_ in step["probes"]] == list(dict.fromkeys(takers))
        probes, evaluating = probes + len(step["probes"]), \
            evaluating + len(takers)
        assert [(i, ids, v) for i, ids, v, *_ in step["served"]] == \
            expected_served(step)
    assert (probes < evaluating) == (mgr.max_instances >= 2)


def grouped_run(F, order):
    """Run ThresholdManager(F, 0.2, 6, 2) over ``order``, recording per
    element the summaries of the states that evaluate it, the probes made,
    each live exponent's state before the element with whether it
    accepted, and whether two live states are one exactly when they hold
    the same sets."""
    mgr = ThresholdManager(F, 0.2, 6, 2)
    steps = []
    for step in recorded_run(mgr, order):
        live, after = step["live"], step["after"]
        states = list(after.values())
        steps.append({
            "evaluating": [frozenset(s.S) for s in live.values()
                           if step["u"] not in s.S and len(s.S) < mgr.ell],
            "probes": len(step["probes"]),
            "exchanges": [(live[l], after[l] is not live[l]) for l in live],
            "tokens_match_sets": all(
                (a is b) == (a.S == b.S)
                and (a is not b or (a.T, a.base) == (b.T, b.base))
                for a in states for b in states)})
    return mgr, steps


class DictThresholdManager(RefThresholdManager):
    """The reference with the element's probe dict: every instance that can
    take an element probes it, through one dict per element seeded with
    the element's singletons, as ``ThresholdManager.process`` seeds it, so
    each (i, T_i) is probed once per element."""

    def process(self, u):
        F, seen, probe = self.F, [], _Sets.probe

        def singleton_average(u):
            singles = [F.value(i, (u,)) for i in range(F.m)]
            seen.extend({(): (None, v, v, [(i, (u,), v)])}
                        for i, v in enumerate(singles))
            return sum(singles) / F.m

        def probed(state, F, x, step=None, raws=None, calls=None):
            return probe(state, F, x, step, raws, [], seen)

        F.singleton_average = singleton_average
        try:
            with mock.patch.object(_Sets, "probe", probed):
                super().process(u)
        finally:
            del F.singleton_average


def test_threshold_manager_probes_once_per_group():
    """Instances holding equal sets probe each element once between them;
    the outputs and counts are the reference's, and f_i is called as often
    as with the probe dict and no shared states, so no follower's replay
    calls it."""
    F, calls = kernel_counted(make_synthetic("coverage", 40, 3, seed=2))
    G = make_synthetic("coverage", 40, 3, seed=2)
    H, dict_calls = kernel_counted(G)
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
    DictThresholdManager(H, 0.2, 6, 2).run(order)
    assert kernel_calls == dict_calls[0]
    # the first element creates many empty instances, and one probe serves
    assert len(steps[0]["evaluating"]) > 1 and steps[0]["probes"] == 1
    # the stream has no repeats, so equal summaries mean one group
    for step in steps:
        assert step["probes"] == len(set(step["evaluating"]))
    assert sum(s["probes"] for s in steps) < \
        sum(len(s["evaluating"]) for s in steps) / 2


@pytest.mark.parametrize("kind", ["modular", "facility", "exemplar"])
def test_each_base_is_the_value_of_its_set(kind):
    """``_Sets.add`` serves each new T_i's eval the probe's value of that
    very set, which equals f_i on the sorted set (``==``), not base plus
    gain: every base that greedy and the manager's live states hold is
    what the same objectives without a kernel compute for its T_i."""
    F = stream_family(kind, 40, 3, 2)
    G = scalar_copy(F)
    stream = np.random.default_rng(2).permutation(40).tolist()
    mgr = ThresholdManager(F, 0.2, 6, 3).run(stream)
    sets = _Sets(F.m, 3)
    for _ in range(6):
        sets.add(F, *sets.best(F, range(40)))
        assert sets.base == [G.value(i, t) for i, t in enumerate(sets.T)]
    for state in mgr.instances.values():
        assert state.base == [G.value(i, t) for i, t in enumerate(state.T)]


def test_split_groups_never_share_again():
    """The instances of one run that accept an element leave its state
    together and the ones that reject keep it: after every element, two
    live exponents share a state exactly when they hold the same S, T and
    base."""
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
# lookahead blocks: long-lived streaming groups served from the kernel


def scalar_copy(F):
    """The same objectives as F with no block kernel: every eval calls f_i."""
    return ObjectiveFamily(F.ground, F._functions)


@contextmanager
def lookahead_spy():
    """Count the kernel blocks ``ThresholdManager._lookahead`` fills and
    the leader probes it serves: yields {"fills": n, "served": n}."""
    counts = {"fills": 0, "served": 0}
    lookahead = streaming.ThresholdManager._lookahead

    def counted_lookahead(self, u, state):
        block = state.kept
        raws = lookahead(self, u, state)
        if raws is not None:
            counts["served"] += 1
            counts["fills"] += state.kept is not block
        return raws

    with mock.patch.object(streaming.ThresholdManager, "_lookahead",
                           counted_lookahead):
        yield counts


def manager_run(manager, F, stream, epsilon, ell, k, alpha=1.0):
    """(outputs, evals spent, or the exception type raised) of one run."""
    before = F.evals
    mgr = manager(F, epsilon, ell, k, alpha=alpha)
    try:
        mgr.run(stream)
    except (ValueError, TypeError) as exc:
        result = type(exc)
    else:
        result = (mgr.best_solution(), mgr.all_solutions())
    return (result, {l: (s.S, s.T, s.base) for l, s in mgr.instances.items()},
            mgr.peak_stored, mgr.max_instances, F.evals - before)


# n=120, m=2, ell=5, k=2, epsilon=0.5: groups live long enough to reach the
# lookahead's default price on both families, shuffled or sorted
LOOKAHEAD_FAMILIES = {
    "facility": lambda: make_synthetic("facility", 120, 2, 3),
    "exemplar": lambda: exemplar_family(float_features(120, 2, 3), 2),
}


@pytest.mark.parametrize("kind", sorted(LOOKAHEAD_FAMILIES))
@pytest.mark.parametrize("order", ["shuffled", "sorted"])
def test_lookahead_run_matches_the_scalar_reference(kind, order):
    """ThresholdManager.run serves long-lived groups from kernel blocks, and
    its outputs, evals, peak_stored and max_instances equal those of the
    reference manager, on the same objectives without a kernel."""
    F = LOOKAHEAD_FAMILIES[kind]()
    stream = list(range(120))
    if order == "shuffled":
        np.random.default_rng(1).shuffle(stream)
    kernel = []
    with lookahead_spy() as seen, spy(F, "_block", kernel.append):
        got = manager_run(ThresholdManager, F, stream, 0.5, 5, 2)
    assert kernel and seen["fills"] > 0 and seen["served"] > seen["fills"]
    assert got == manager_run(RefThresholdManager, scalar_copy(F), stream,
                              0.5, 5, 2)


@pytest.mark.parametrize("kind", sorted(LOOKAHEAD_FAMILIES))
def test_lookahead_distributed_fast_matches_the_scalar_path(kind):
    F = LOOKAHEAD_FAMILIES[kind]()
    G = scalar_copy(F)
    with lookahead_spy() as seen:
        got = outcome(F, distributed_fast, 2, 0.5, 5, 2, 0)
    assert seen["fills"] > 0 and seen["served"] > seen["fills"]
    assert got == outcome(G, distributed_fast, 2, 0.5, 5, 2, 0)


# coverage probes every leader set by set; on the two families with a block
# kernel, some long-lived groups' leaders are served from lookahead blocks
REPLAY_FAMILIES = {
    "coverage": lambda: make_synthetic("coverage", 40, 3, seed=2),
    "exemplar": lambda: exemplar_family(float_features(40, 3, 2), 3),
    "facility": LOOKAHEAD_FAMILIES["facility"],
}


@pytest.mark.parametrize("kind", sorted(REPLAY_FAMILIES))
def test_follower_replays_call_no_objective(kind):
    """A follower replays its leader's recorded calls: no f_i call, and
    one eval per recorded call, which is one per set of its probe table,
    also when the leader was served from a lookahead block."""
    F = REPLAY_FAMILIES[kind]()
    stream = np.random.default_rng(1).permutation(F.ground.n).tolist()
    steps = recorded_run(ThresholdManager(F, 0.5, 5, 2), stream)
    replays = []  # (leader served a row, recorded calls, table sets)
    for step in steps:
        for _, state, calls, row in followers(step):
            replays.append((row, len(calls),
                            sum(len(bases) for bases, _ in state.moves)))
        assert [(i, ids, v) for i, ids, v, *_ in step["served"]] == \
            expected_served(step)
        assert all(evals == 1 and f_calls == 0
                   for *_, evals, f_calls, _ in step["served"])
    assert replays
    for _, calls, sets in replays:
        assert calls == sets
    served_replays = sum(row for row, *_ in replays)
    if F._block is None:
        assert served_replays == 0
    else:  # both kinds of leader have followers
        assert 0 < served_replays < len(replays)


@pytest.mark.parametrize("instrument", [False, True])
@pytest.mark.parametrize("kind", sorted(REPLAY_FAMILIES))
def test_shared_group_states_match_the_reference(kind, instrument):
    """The instances of one run share one state.  The first to accept an
    element builds the run's new state; every later accepter takes it and
    makes the first's base evals again, served, while the rejecters, the
    run's upper end, keep the old one.  Outputs, live states, evals,
    peak_stored and max_instances equal those of the reference, in which
    every instance has its own state and evaluates everything on
    objectives without a kernel; on instrumented runs, each accepter's
    trace checks make its own evals."""
    F = REPLAY_FAMILIES[kind]()
    steps = []

    def run(manager, F):
        before = F.evals
        mgr = manager(F, 0.5, 5, 2, instrument=instrument)
        stream = np.random.default_rng(1).permutation(F.ground.n).tolist()
        if manager is ThresholdManager:
            steps.extend(recorded_run(mgr, stream))
        else:
            mgr.run(stream)
        return (mgr.best_solution(), mgr.all_solutions(),
                {l: (s.S, s.T, s.base, s.trace)
                 for l, s in mgr.instances.items()},
                mgr.peak_stored, mgr.max_instances, F.evals - before)

    assert run(ThresholdManager, F) == run(RefThresholdManager,
                                           scalar_copy(F))
    builds = accepters = 0
    for step in steps:
        live, after = step["live"], step["after"]
        olds = [old for old, *_ in step["builds"]]
        assert len(set(map(id, olds))) == len(olds)  # one build per run
        for old, new, gains, evals in step["builds"]:
            run_ls = sorted(l for l in live if live[l] is old)
            took = [l for l in run_ls if after[l] is not old]
            assert took == run_ls[:len(took)] and took
            assert all(after[l] is new for l in took) and new is not old
            assert evals == sum(g > 0 for g in gains)
            builds, accepters = builds + 1, accepters + len(took)
        assert all(after[l] is live[l] for l in live
                   if live[l] not in olds)
        assert [(i, ids, v) for i, ids, v, *_ in step["served"]] == \
            expected_served(step)
    assert accepters > 2 * builds  # most accepters take a built state


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["facility", "exemplar"]),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_lookahead_at_any_price_matches_the_scalar_reference(kind, seed, data):
    """With the price at 0 every group token's leaders are served from its
    blocks, and small blocks are refilled often; repeated arrivals, alpha
    and the grid vary.  The run still equals the scalar reference's."""
    n = 12
    m = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    ell = data.draw(st.integers(k, k + 3))
    epsilon = data.draw(st.sampled_from([0.2, 1.0]))
    alpha = data.draw(st.sampled_from([0.5, 1.0]))
    stream = data.draw(st.lists(st.integers(0, n - 1), max_size=40))
    floats = data.draw(st.sampled_from([1, 16, 512]))
    F = stream_family(kind, n, m, seed)
    with mock.patch.object(streaming, "KERNEL_CALL_EVALS", 0), \
            mock.patch.object(streaming, "LOOKAHEAD_FLOATS", floats):
        got = manager_run(ThresholdManager, F, stream, epsilon, ell, k, alpha)
    assert got == manager_run(RefThresholdManager, scalar_copy(F), stream,
                              epsilon, ell, k, alpha)


def poisoned_pair_family(bad):
    """Two modular functions on 12 elements, with a set-by-set kernel; f_1
    is ``bad`` on every set holding both 0 and 9."""
    weights = np.random.default_rng(0).uniform(0.5, 1.0, (2, 12))

    def f0(ids):
        return float(sum(weights[0][e] for e in ids))

    def f1(ids):
        return bad if {0, 9} <= set(ids) else float(
            sum(weights[1][e] for e in ids))

    F = ObjectiveFamily(make_synthetic("modular", 12, 2, 0).ground, [f0, f1])
    F._block = scalar_block(F)
    return F


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_block_value_raises_at_the_scalar_eval(bad):
    """A block filled ahead holds 9's non-finite value; the run raises
    NonFiniteValueError when 9 arrives, at the reference's eval count."""
    stream = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    F = poisoned_pair_family(bad)
    blocks = []
    fill = _Sets._block_values

    def recorded(self, F, xs, keep):
        vals, row_of = fill(self, F, xs, keep)
        blocks.append(not np.isfinite(vals).all())
        return vals, row_of

    with mock.patch.object(streaming, "KERNEL_CALL_EVALS", 0), \
            mock.patch.object(_Sets, "_block_values", recorded):
        got = manager_run(ThresholdManager, F, stream, 0.5, 3, 2, 0.1)
    assert any(blocks)
    assert got[0] is NonFiniteValueError
    assert got == manager_run(RefThresholdManager, scalar_copy(F), stream,
                              0.5, 3, 2, 0.1)


@pytest.mark.parametrize("bad", [120, -1, 2.5, np.float64(3.0), None])
@pytest.mark.parametrize("kind", sorted(LOOKAHEAD_FAMILIES))
def test_bad_arrival_ahead_raises_where_the_scalar_path_does(kind, bad):
    """A bad id in the stream ahead, just after two repeated arrivals, is
    left out of every block: the run raises at it, not earlier, after the
    reference's evals and with the reference's states."""
    F = LOOKAHEAD_FAMILIES[kind]()
    stream = list(range(100)) + [7, 50] + [bad] + list(range(100, 120))
    with lookahead_spy() as seen:
        got = manager_run(ThresholdManager, F, stream, 0.5, 5, 2)
    assert seen["served"] > 0
    assert got[0] in (ValueError, TypeError)
    assert got == manager_run(RefThresholdManager, scalar_copy(F), stream,
                              0.5, 5, 2)


# ---------------------------------------------------------------------------
# the coverage row kernel: every coverage probe served from bitmask ORs


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), data=st.data())
def test_coverage_row_kernel_is_bit_identical(seed, data):
    """``F._row``, less the offsets, equals ``F.value`` set by set (``==``)
    on probe tables whose sets are empty, below budget or at budget."""
    n = data.draw(st.integers(1, 30))
    m = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 4))
    F = make_synthetic("coverage", n, m, seed)
    x = data.draw(st.integers(0, n - 1))
    others = [e for e in range(n) if e != x]
    moves = []
    for _ in range(m):
        size = data.draw(st.sampled_from([0, data.draw(st.integers(0, k - 1)),
                                          k]))
        key = data.draw(st.permutations(others))[:size]
        moves.append(_moves(tuple(sorted(key)), k))
    rows = [F._row(i, x, bases) for i, (bases, _) in enumerate(moves)]
    assert [[v - F._offsets[i] for v in row] for i, row in enumerate(rows)] \
        == [[F.value(i, base + (x,)) for base in bases]
            for i, (bases, _) in enumerate(moves)]


def offset_coverage(n, m, seed):
    """Coverage plus a constant c_i per function, with its row kernel: the
    offsets are the c_i, so probes serve the row less them."""
    F = make_synthetic("coverage", n, m, seed)
    row, consts = F._row, [0.5 + i for i in range(m)]
    G = ObjectiveFamily(F.ground, [lambda ids, f=f, c=c: c + f(ids)
                                   for f, c in zip(F._functions, consts)])
    G._row = lambda i, x, bases: [consts[i] + v for v in row(i, x, bases)]
    assert G._offsets == consts
    return G


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["coverage", "offset coverage"]), data=st.data())
def test_coverage_solvers_match_without_the_row_kernel(seed, kind, data):
    """Greedy, both streaming solvers and distributed_fast on a family with
    a row kernel equal the same objectives without it, outputs and evals;
    ThresholdManager's reference also has no probe dict and no groups."""
    n = data.draw(st.integers(4, 14))
    m = data.draw(st.integers(1, 3))
    F = (make_synthetic("coverage", n, m, seed) if kind == "coverage"
         else offset_coverage(n, m, seed))
    assert_row_kernel_solvers_match(F, seed, data)


def assert_row_kernel_solvers_match(F, seed, data):
    """Greedy, both streaming solvers and distributed_fast on F, which has
    a row kernel, equal them on F's objectives with no kernel, outputs and
    evals, for drawn budgets and candidates; the row kernel is called."""
    n = F.ground.n
    G = scalar_copy(F)
    assert G._row is None
    k = data.draw(st.integers(1, 4))
    ell = data.draw(st.integers(k, k + 3))
    cands = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=2 * n))
    M = data.draw(st.integers(1, 4))
    opt = data.draw(st.sampled_from([0.1, 1.0, 4.0]))
    epsilon = data.draw(st.sampled_from([0.2, 1.0]))
    alpha = data.draw(st.sampled_from([0.5, 1.0]))
    instrument = data.draw(st.booleans())

    def know_opt(F):
        return run_know_opt(cands, F, opt, ell, k, alpha, instrument)

    rows = []
    with spy(F, "_row", rows.append):
        for solver, args in ((replacement_greedy, (cands, ell, k)),
                             (distributed_fast, (M, epsilon, ell, k, seed)),
                             (know_opt, ())):
            assert outcome(F, solver, *args) == outcome(G, solver, *args)
        assert manager_run(ThresholdManager, F, cands, epsilon, ell, k,
                           alpha) == \
            manager_run(RefThresholdManager, G, cands, epsilon, ell, k, alpha)
    assert rows


# ---------------------------------------------------------------------------
# the exemplar row kernel: set-by-set exemplar probes served from the tables


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10 ** 6), disjoint=st.booleans(), data=st.data())
def test_exemplar_row_kernel_is_bit_identical(seed, disjoint, data):
    """``F._row`` equals ``F.value`` set by set (``==``) on probe tables
    whose sets are empty, below budget or at budget, for candidates in and
    outside each class, on overlapping classes and on disjoint ones, which
    get a table each; its values are floats."""
    n = 300 if disjoint else 210
    F = (disjoint_exemplar if disjoint else wide_exemplar)(seed, n, 2, data)
    assert F._offsets == [0.0, 0.0]
    k = data.draw(st.integers(1, 4))
    x = data.draw(st.integers(0, n - 1))
    others = [e for e in range(n) if e != x]
    moves = []
    for _ in range(F.m):
        size = data.draw(st.sampled_from([0, data.draw(st.integers(0, k - 1)),
                                          k]))
        key = data.draw(st.permutations(others))[:size]
        moves.append(_moves(tuple(sorted(key)), k))
    rows = [F._row(i, x, bases) for i, (bases, _) in enumerate(moves)]
    assert rows == [[F.value(i, base + (x,)) for base in bases]
                    for i, (bases, _) in enumerate(moves)]
    assert all(type(v) is float for row in rows for v in row)


@pytest.mark.parametrize("shared", [True, False],
                         ids=["shared table", "per-class tables"])
@pytest.mark.parametrize("i, key, k, xs", [row[1:] for row in KERNEL_SHAPES],
                         ids=[row[0] for row in KERNEL_SHAPES])
def test_exemplar_row_kernel_shapes(i, key, k, xs, shared):
    """The block kernel's rare shapes, one candidate at a time: memberless
    bases, candidates outside the class, the empty base and a class of
    width 1, on both table layouts."""
    F = kernel_shapes_family(shared)
    f = F._functions[i]
    bases = _moves(key, k)[0]
    assert [F._row(i, x, bases) for x in xs] == \
        [[f(tuple(sorted(b + (x,)))) for b in bases] for x in xs]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), blocks=st.booleans(), data=st.data())
def test_exemplar_solvers_match_without_the_row_kernel(seed, blocks, data):
    """Greedy, both streaming solvers, distributed_fast and
    ThresholdManager on an exemplar family equal the same objectives with
    no kernel, outputs and evals: with the family's block kernel, and
    without it, so that greedy's probes take the row kernel too."""
    n = data.draw(st.integers(4, 14))
    m = data.draw(st.integers(1, 3))
    F = exemplar_family(float_features(n, m, seed), m)
    if not blocks:
        F._block = None
    assert_row_kernel_solvers_match(F, seed, data)


@pytest.mark.parametrize("bad, error", [(2.5, TypeError), (-1, ValueError),
                                        (None, TypeError)])
def test_bad_ids_raise_before_any_eval_with_the_row_kernel(bad, error):
    """``value`` does not range-check a served value, so the probes' callers
    are the boundary: on a family with a row kernel, a bad id raises its
    typed error before any eval or row call, also against a filled state,
    where -1 would otherwise read the last element's mask."""
    F = make_synthetic("coverage", 12, 3, seed=4)
    state = StreamState(F.m, 12, 2, 0.1, 0.0)  # tau 0 takes every element
    for u in range(6):
        exchange(F, u, state)
    assert state.S == set(range(6)) and all(len(T) == 2 for T in state.T)
    rows = []
    with spy(F, "_row", rows.append):
        for call in (lambda: exchange(F, bad, state),
                     lambda: run_know_opt([bad, 1], F, 1.0, 4, 2),
                     lambda: replacement_greedy(F, [0, bad, 3], 4, 2)):
            before = F.evals
            with pytest.raises(error):
                call()
            assert (F.evals - before, rows) == (0, [])
        exchange(F, 6, state)
    assert [(i, x) for i, x, _ in rows] == [(i, 6) for i in range(F.m)]


@pytest.mark.parametrize("bad", [2.5, -1, None, 40])
def test_bad_arrival_raises_where_the_row_free_run_does(bad):
    """A bad id mid-stream raises at the same element, after the same evals
    and with the same states, as the reference without the row kernel."""
    F = make_synthetic("coverage", 40, 3, seed=2)
    stream = list(range(20)) + [bad] + list(range(20, 40))
    got = manager_run(ThresholdManager, F, stream, 0.2, 6, 2)
    assert got[0] in (ValueError, TypeError)
    assert got == manager_run(RefThresholdManager, scalar_copy(F), stream,
                              0.2, 6, 2)


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

"""Ground set, evaluation-counted objective families, and the gain primitives.

Every solver in this package is built from four quantities computed for a
candidate element ``x`` against a partial solution ``A``:

* the plain marginal gain ``f(A + x) - f(A)``,
* the best-swap gain (which element of ``A`` should ``x`` replace, and what
  is that worth),
* the thresholded streaming gain (swap/insertion gain, zeroed when it does
  not clear a fraction of the current value), and
* the greedy additive gain (insertion gain below budget, clamped swap gain
  at budget).

The four public primitives are the checked form: they take any iterable,
validate the candidate and the set, and evaluate a missing base.  All of
them run the same swap loop, ``_move``, which trusts its caller.  The
greedy and streaming drivers keep their solution in a ``_Sets``, whose
``probes`` picks the kernel, whose ``probe`` counts a candidate's moves by
the clamp or the threshold, and whose ``add`` applies them.

The eval contract: every counted evaluation is exactly one call to
``ObjectiveFamily.value``, looked up on the class at call time, and each call
adds one to ``F.evals``.  ``F.evals`` is the logical count, the paper's cost
measure: a code path performs the same evals every time it runs.  Two
sources serve evals from values already computed rather than from the
objective, and they are still counted one ``value`` call each:

* the memo, for repeats within one streaming element.
  ``ThresholdManager.process`` opens ``_memo_scope`` around each element
  and probes it once per group of threshold instances holding the same
  sets; each other member of a group replays the leader's probe, one
  ``value`` call per set it evaluated (``_Sets.probe_sets``), and the memo
  serves every replayed call.  The memo stores only sorted, checked keys,
  so a replayed set, passed as its sorted tuple, is found as given: it is
  counted, and was checked when the leader's call stored it.
* the values of F's block kernel, in greedy only: ``_Sets.probes`` gets
  each candidate's probe sets' values in blocks, and passes each one to
  its ``value`` call as ``served``; a streaming ``_Sets.probe`` of one
  element serves none.  When a round's candidates fit in one block, the
  ``_Sets`` keeps that block, and a later round asks the kernel again only
  for the functions whose T_i changed; every other value is the one
  computed for the same candidate against the same T_i.  The kept block
  lives as long as the ``_Sets``, one solver call.

Nothing else is memoised.
"""

from __future__ import annotations

from bisect import bisect
from contextlib import contextmanager
from dataclasses import dataclass
from math import inf, isfinite
from operator import index
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


def _check_ids(ids: Iterable):
    """Raise TypeError unless every id is an integer (``operator.index``)."""
    try:
        for e in ids:
            index(e)
    except TypeError:
        raise TypeError(f"element ids must be integers, got {e!r}") from None


class InvariantViolation(AssertionError):
    """An instrumented run observed a state that should be impossible."""


class NonFiniteValueError(ValueError):
    """An objective function returned NaN or an infinity."""


@dataclass(frozen=True)
class GroundSet:
    """The n selectable elements plus opaque per-element payload.

    Elements are dense integer ids ``0..n-1``.  ``payload`` is whatever the
    objective implementations need (points, feature vectors, nothing).
    """

    n: int
    payload: Sequence = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ground set must contain at least one element")

    def elements(self) -> range:
        return range(self.n)


class ObjectiveFamily:
    """An ordered family of m monotone submodular functions over one ground set.

    Functions are normalized at construction so that every member evaluates
    to exactly 0 on the empty set.  Every set evaluation increments ``evals``;
    the complexity regression tests depend on that count being deterministic
    for a fixed code path.  ``_memo`` is None, or one dict per function from
    sorted key to value while a ``_memo_scope`` is open.  ``_block`` is None
    or the family's block kernel (see ``_bases``), and
    ``_table_floats`` the number of floats in the tables the kernel reads (0
    without one), which sizes the blocks of ``_Sets.probes``.
    """

    def __init__(self, ground: GroundSet,
                 functions: Sequence[Callable[[tuple], float]]):
        if len(functions) < 1:
            raise ValueError("need at least one function")
        self.ground = ground
        self._functions = list(functions)
        self._m = len(self._functions)
        self._n = ground.n
        self.evals = 0
        self._memo = None
        self._block = None
        self._table_floats = 0
        self._offsets = [0.0] * self._m
        self._offsets = [self.value(i, ()) for i in range(self._m)]

    @property
    def m(self) -> int:
        return self._m

    def value(self, i: int, ids: Iterable[int],
              served: float | None = None) -> float:
        """Normalized value of f_i on the given element set (one counted eval).

        ``i`` is checked first, and every call that passes the checks is
        counted.  While a memo scope is open, a set already evaluated in it
        returns the stored value without calling f_i; a non-finite value
        raises and is never stored.  The memo's keys are sorted and were
        range-checked when stored, so a tuple found there as given is a
        canonical repeat: it is counted and served without being sorted or
        checked again.  Any other set is sorted and its ids range-checked
        before it is counted or looked up.  Internal: ``served`` is the
        normalized value a block kernel computed for this set, and is
        returned without calling f_i if it is finite.  A non-integer id
        raises ``TypeError`` before f_i is called.
        """
        if not 0 <= i < self._m:
            raise ValueError(f"function index {i} out of range [0, {self._m})")
        memo = self._memo
        if memo is not None and type(ids) is tuple:
            v = memo[i].get(ids)
            if v is not None:
                self.evals += 1
                return v
        key = tuple(sorted(ids))
        if key and not (0 <= key[0] and key[-1] < self._n):
            raise ValueError("element id out of range")
        self.evals += 1
        if memo is not None:
            v = memo[i].get(key)
            if v is not None:
                return v
        if served is not None and isfinite(served):
            return served
        _check_ids(key)
        v = float(self._functions[i](key)) - self._offsets[i]
        if not isfinite(v):
            raise NonFiniteValueError(
                f"function {i} evaluated to {v} on the set {key}")
        if memo is not None:
            memo[i][key] = v
        return v

    @contextmanager
    def _memo_scope(self):
        """Serve repeated evals from a fresh memo until the block exits.

        The memo the block replaces, if any, is restored on exit, also when
        the block raises.
        """
        outer = self._memo
        self._memo = [{} for _ in range(self._m)]
        try:
            yield
        finally:
            self._memo = outer

    def singleton_average(self, u: int) -> float:
        """(1/m) sum_i f_i({u}); the quantity the streaming threshold tracker maximizes."""
        return sum(self.value(i, (u,)) for i in range(self.m)) / self.m


@dataclass(frozen=True)
class SwapOutcome:
    """Result of probing one candidate move: what got replaced and what it gained.

    ``replaced`` is None for pure insertions and for rejected moves.
    """

    replaced: Optional[int]
    gain: float


@dataclass
class TwoStageSolution:
    """A summary set plus the per-function solutions chosen from it."""

    summary: frozenset
    per_function: tuple  # tuple of frozensets, one per function
    value: float
    ell: int
    k: int

    def check(self):
        if len(self.summary) > self.ell:
            raise ValueError("summary exceeds its budget")
        for t in self.per_function:
            if len(t) > self.k:
                raise ValueError("per-function solution exceeds its budget")
            if not t <= self.summary:
                raise ValueError("per-function solution not contained in summary")


def check_budgets(ell: int, k: int):
    """Raise TypeError unless ell and k are integers, ValueError unless
    1 <= k <= ell."""
    if min(index(ell), index(k)) < 1:
        raise ValueError(f"budgets must be at least 1, got ell={ell}, k={k}")
    if k > ell:
        raise ValueError(f"per-function budget k={k} cannot exceed ell={ell}")


def empty_solution(m: int, ell: int, k: int) -> TwoStageSolution:
    return TwoStageSolution(frozenset(), tuple(frozenset() for _ in range(m)),
                            0.0, ell, k)


def solution_from_sets(F: ObjectiveFamily, summary, per_function,
                       ell: int, k: int) -> TwoStageSolution:
    """Build a solution with a freshly recomputed value."""
    sets = tuple(frozenset(t) for t in per_function)
    value = sum(F.value(i, t) for i, t in enumerate(sets)) / F.m
    sol = TwoStageSolution(frozenset(summary), sets, value, ell, k)
    sol.check()
    return sol


def _bases(key: tuple, swap: bool) -> list:
    """The sets a probe against the sorted ``key`` adds its candidate to:
    ``key`` itself, or, to ``swap``, ``key`` without ``key[j]`` for each j.

    A block kernel ``F._block(i, key, xs, swap)`` gives the raw value of f_i
    on each of them plus x, for each x of ``xs`` (none in ``key``): shape
    (len(xs),), or (len(xs), len(key)) to swap.  It reduces each base's rows
    once and combines the result with every candidate's row at once.
    """
    return [key[:j] + key[j + 1:] for j in range(len(key))] if swap else [key]


def _move(value: Callable[..., float], i: int, key: tuple, bases: list,
          x: int, base: float, raw: list | None = None) -> tuple:
    """Best single swap of x for some y in the sorted tuple ``key``:
    ``(y, gain)``; the gain may be negative and ties go to the lowest y.

    Unchecked: ``value`` is the bound ``F.value``, ``key`` must be non-empty
    and must not contain x, ``bases`` is ``_bases(key, True)``, and
    ``base`` is f_i(key).  ``raw``, if given, has the swap sets' kernel
    values by j, each passed to its ``value`` call as ``served``.
    """
    best_y = None
    best_gain = 0.0
    for j, y in enumerate(key):
        ids = bases[j] + (x,)
        gain = (value(i, ids) if raw is None else value(i, ids, raw[j])) - base
        if best_y is None or gain > best_gain:
            best_gain = gain
            best_y = y
    return best_y, best_gain


# The floats one block of ``_Sets.probes`` holds at most, k per function
# and candidate: this, or an eighth of F's kernel tables
# (``F._table_floats``) when that is more, so that a family whose tables
# are large probes every candidate of a round in one block, which the
# ``_Sets`` keeps for the next round.
BLOCK_FLOATS = 1024


class _Sets:
    """A two-stage solution under construction: the summary ``S``, one
    sorted tuple ``T[i]`` per function and its cached value ``base[i]``."""

    def __init__(self, m: int):
        self.S = set()
        self.T = [()] * m
        self.base = [0.0] * m
        self.kept = None  # the block ``probes`` keeps, see ``_block_values``

    def swap_bases(self, k: int) -> list:
        """``_bases(T[i], True)`` for each function at budget k, else None."""
        return [_bases(key, True) if len(key) >= k else None
                for key in self.T]

    def probe(self, F: ObjectiveFamily, x: int, k: int,
              step: float | None = None, raws: list | None = None,
              bases: list | None = None) -> tuple:
        """The moves of x, not in S, as ``(replaced, gains)`` lists by function.

        A gain counts as ``lambda_gain``'s if ``step`` is None, else as
        ``nabla``'s with the bar ``step * base[i]``; one that does not count
        is 0.0 with replaced None.  ``raws``, given only by ``probes``, has
        x's kernel values by (function, j); without it every set is
        evaluated by f_i.  ``bases`` is ``self.swap_bases(k)``, made here if
        not given.
        """
        if bases is None:
            bases = self.swap_bases(k)
        value = F.value
        base = self.base
        replaced = []
        gains = []
        for i, key in enumerate(self.T):
            b = base[i]
            raw = raws and raws[i]
            if len(key) >= k:
                r, g = _move(value, i, key, bases[i], x, b, raw)
            elif raw is None:
                r, g = None, value(i, key + (x,)) - b
            else:
                r, g = None, value(i, key + (x,), raw[0]) - b
            if not ((r is None or g > 0) and (step is None or g >= step * b)):
                r, g = None, 0.0
            replaced.append(r)
            gains.append(g)
        return replaced, gains

    def probe_sets(self, x: int, k: int) -> list:
        """The ``(i, ids)`` of each ``F.value`` call that ``probe`` makes
        for x, not in S, outside the block kernel: one insertion set per
        function below budget k, one swap set per member at it.  Each ids
        is the sorted tuple that ``value`` keys its memo by, so a replay
        of a set ``probe`` evaluated in the same memo scope is counted
        without being sorted or checked again."""
        sets = []
        for i, key in enumerate(self.T):
            p = bisect(key, x)
            ins = key[:p] + (x,) + key[p:]
            if len(key) >= k:
                sets.extend((i, ins[:q] + ins[q + 1:])
                            for q in range(len(ins)) if q != p)
            else:
                sets.append((i, ins))
        return sets

    def probes(self, F: ObjectiveFamily, xs: Iterable[int], k: int,
               step: float | None = None):
        """Yield ``(x, replaced, gains)``, the ``probe`` of each x of xs not
        in S, in order; the caller changes nothing here until it is done.

        With F's block kernel, the candidates' values come in blocks
        (``_block_values``), and each probe is served its row.  When they
        fit in one block, that block is kept for the next call."""
        xs = [x for x in xs if x not in self.S]
        bases = self.swap_bases(k)
        if F._block is None:
            yield from ((x, *self.probe(F, x, k, step, None, bases))
                        for x in xs)
            return
        size = max(1, max(BLOCK_FLOATS, F._table_floats // 8) // (F.m * k))
        for start in range(0, len(xs), size):
            part = xs[start:start + size]
            vals = None  # the last block's values go before the next's come
            vals, row_of = self._block_values(F, part, k, len(xs) <= size)
            for x in part:
                yield (x, *self.probe(F, x, k, step, vals[row_of[x]].tolist(),
                                      bases))

    def _block_values(self, F: ObjectiveFamily, xs: list, k: int,
                      keep: bool) -> tuple:
        """The values of the probe sets of xs, none in S, from F's kernel
        less the offsets, by (row, function, j), and the row of each x.

        The block is new, unless ``keep`` and the kept block has a row for
        every x: then a function's column is reused if T[i] is still the
        key it was filled for, and refilled for the rows not in S if not.
        A ``_Sets`` probes at one k.  A new block is kept if ``keep``.  A
        column counts as filled only once ``F._block`` has returned; a value
        that is not finite stays in the block, and ``value`` does not serve
        it."""
        _check_ids(xs)
        kept = self.kept if keep else None
        if kept is None or any(x not in kept[0] for x in xs):
            kept = ({x: r for r, x in enumerate(xs)},
                    np.zeros((len(xs), F.m, k)), [None] * F.m)
            if keep:
                self.kept = kept
        row_of, vals, keys = kept
        live = [x for x in row_of if x not in self.S]
        # a slice writes a whole new block faster than a row list
        rows = (slice(None) if len(live) == len(row_of)
                else [row_of[x] for x in live])
        for i, key in enumerate(self.T):
            if keys[i] != key:
                swap = len(key) >= k
                vals[rows, i, :k if swap else 1] = F._block(
                    i, key, live, swap).reshape(len(live), -1) - F._offsets[i]
                keys[i] = key
        return vals, row_of

    def add(self, F: ObjectiveFamily, x: int, replaced: list, gains: list):
        """Put x in S, and in each T[i] whose gain is positive, in place
        of ``replaced[i]``; re-evaluate those ``base[i]``."""
        self.S.add(x)
        T = self.T
        for i, gain in enumerate(gains):
            if gain > 0:
                T[i] = tuple(sorted([y for y in T[i] if y != replaced[i]]
                                    + [x]))
                self.base[i] = F.value(i, T[i])

    def total(self) -> float:
        return sum(self.base) / len(self.base)


def _check_alpha(alpha: float):
    """Raise ValueError unless 0 < alpha < inf (the exchange bar's factor)."""
    if not 0 < alpha < inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def _probe(F: ObjectiveFamily, i: int, x: int, key: tuple, k: int,
           base: float | None) -> tuple:
    """The raw move of x against ``key`` with its arguments checked and a
    missing base evaluated: the insertion gain below budget ``k`` (exactly
    0.0 with no eval when x is already in ``key``), else ``_move``.
    """
    _check_ids((x,))
    if not 0 <= x < F.ground.n:
        raise ValueError(f"element {x} out of range [0, {F.ground.n})")
    if len(key) < k:
        if x in key:
            return None, 0.0
    elif not key:
        raise ValueError("rep requires a non-empty set; use the insertion path")
    elif x in key:
        raise ValueError("candidate already in the set")
    if base is None:
        base = F.value(i, key)
    if len(key) < k:
        return None, F.value(i, key + (x,)) - base
    return _move(F.value, i, key, _bases(key, True), x, base)


def marginal(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
             base: float | None = None) -> float:
    """f_i(A + x) - f_i(A); exactly 0 when x is already in A.

    ``base`` lets callers reuse a cached f_i(A) instead of re-evaluating.
    """
    key = tuple(sorted(set(A)))
    # a budget above |A| always takes the insertion path
    return _probe(F, i, x, key, len(key) + 1, base)[1]


def rep(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
        base: float | None = None) -> SwapOutcome:
    """Best single swap of x into A: argmax_{y in A} f_i(A + x - y) - f_i(A).

    The gain may be negative.  Ties break toward the lowest replaced id.
    """
    # budget 0 always takes the swap path
    return SwapOutcome(*_probe(F, i, x, tuple(sorted(set(A))), 0, base))


def nabla(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
          alpha: float, k: int, base: float | None = None) -> SwapOutcome:
    """Thresholded streaming gain of x against A.

    Below budget the insertion gain counts only if it reaches
    (alpha/k) * f_i(A); at budget the best-swap gain must clear the same
    bar.  Anything below the bar contributes 0.  The returned gain is
    always >= 0; ``replaced`` is set only for an accepted swap.
    """
    _check_alpha(alpha)
    return _counted(F, i, x, A, k, base, alpha / k)


def lambda_gain(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
                k: int, base: float | None = None) -> SwapOutcome:
    """Greedy additive gain of x against A.

    Plain insertion gain below budget; at budget, the best-swap gain clamped
    at 0.  A zero-gain swap is reported with ``replaced`` unset so callers
    treat it as a no-op.
    """
    return _counted(F, i, x, A, k, base, None)


def _counted(F: ObjectiveFamily, i: int, x: int, A: Iterable[int], k: int,
             base: float | None, step: float | None) -> SwapOutcome:
    """The move of x against A, counted by ``_Sets.probe``'s rule."""
    key = tuple(sorted(set(A)))
    if len(key) > k:
        raise InvariantViolation("per-function solution larger than its budget")
    if base is None:
        base = F.value(i, key)
    replaced, gain = _probe(F, i, x, key, k, base)
    if (replaced is None or gain > 0) and (step is None or gain >= step * base):
        return SwapOutcome(replaced, gain)
    return SwapOutcome(None, 0.0)


def evaluate_solution(F: ObjectiveFamily, sol: TwoStageSolution) -> float:
    """(1/m) sum_i f_i(T_i), recomputed from scratch."""
    for t in sol.per_function:
        if not t <= sol.summary:
            raise ValueError("per-function solution not contained in summary")
    return sum(F.value(i, t) for i, t in enumerate(sol.per_function)) / F.m

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
measure: a code path performs the same evals every time it runs.  Two memos
serve evals from values already computed rather than from the objective, and
they are still counted one ``value`` call each:

* repeats within one streaming element.  ``ThresholdManager.process`` opens
  ``_memo_scope`` around each element and probes it once per group of
  threshold instances holding the same sets; each other member of a group
  replays the leader's probe, one ``value`` call per set it evaluated
  (``_Sets.probe_sets``), and the memo serves every replayed call.
* outside such a scope, each set of a probe that ``_Sets.probes`` serves
  from a block kernel (the block memo).

Nothing else is memoised.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from math import inf, isfinite
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


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
    sorted key to value while a ``_memo_scope`` is open, or the block memo
    of ``_Sets.probes``.  ``_block`` is None or the family's block kernel
    (see ``objectives._bases``).
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
        self._offsets = [0.0] * self._m
        self._offsets = [self.value(i, ()) for i in range(self._m)]

    @property
    def m(self) -> int:
        return self._m

    def value(self, i: int, ids: Iterable[int]) -> float:
        """Normalized value of f_i on the given element set (one counted eval).

        The checks and the count come first, so a repeat is checked and
        counted like any eval.  While a memo scope is open, a set already
        evaluated in it returns the stored value without calling f_i; a
        non-finite value raises and is never stored.
        """
        if not 0 <= i < self._m:
            raise ValueError(f"function index {i} out of range [0, {self._m})")
        key = tuple(sorted(ids))
        if key and not (0 <= key[0] and key[-1] < self._n):
            raise ValueError("element id out of range")
        self.evals += 1
        memo = self._memo
        if memo is not None:
            v = memo[i].get(key)
            if v is not None:
                return v
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
    """Raise ValueError unless 1 <= k <= ell."""
    if ell < 1 or k < 1:
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


def _move(value: Callable[[int, tuple], float], i: int, key: tuple, x: int,
          base: float, raw: list | None = None, memo: list | None = None) -> tuple:
    """Best single swap of x for some y in the sorted tuple ``key``:
    ``(y, gain)``; the gain may be negative and ties go to the lowest y.

    Unchecked: ``value`` is the bound ``F.value``, ``key`` must be non-empty
    and must not contain x, and ``base`` is f_i(key).  ``raw``, if given,
    has the swap sets' values by j; the block memo ``memo`` serves each
    call its set's value, unless that is not finite: f_i is evaluated.
    """
    best_y = None
    best_gain = 0.0
    if raw is not None:
        p = bisect_left(key, x)
        joined = key[:p] + (x,) + key[p:]  # sorted; key[j] at j or j + 1
    for j, y in enumerate(key):
        if raw is None:
            ids = key[:j] + key[j + 1:] + (x,)
        else:
            q = j + (j >= p)
            ids = joined[:q] + joined[q + 1:]
            memo[i] = {ids: raw[j]} if isfinite(raw[j]) else {}
        gain = value(i, ids) - base
        if best_y is None or gain > best_gain:
            best_gain = gain
            best_y = y
    return best_y, best_gain


# The values one block of ``_Sets.probes`` holds, k per function and candidate
BLOCK_FLOATS = 1024


class _Sets:
    """A two-stage solution under construction: the summary ``S``, one
    sorted tuple ``T[i]`` per function and its cached value ``base[i]``."""

    def __init__(self, m: int):
        self.S = set()
        self.T = [()] * m
        self.base = [0.0] * m

    def probe(self, F: ObjectiveFamily, x: int, k: int,
              step: float | None = None, raws: list | None = None) -> tuple:
        """The moves of x, not in S, as ``(replaced, gains)`` lists by function.

        A gain counts as ``lambda_gain``'s if ``step`` is None, else as
        ``nabla``'s with the bar ``step * base[i]``; one that does not count
        is 0.0 with replaced None.  With F's block kernel and no memo scope
        open, this is a block of one of ``probes``, which passes x's values.
        """
        if raws is None and F._block is not None and F._memo is None:
            return next(self.probes(F, (x,), k, step))[1:]
        value = F.value
        base = self.base
        replaced = []
        gains = []
        for i, key in enumerate(self.T):
            b = base[i]
            if len(key) >= k:
                r, g = _move(value, i, key, x, b, raws and raws[i], F._memo)
            else:
                ids = key + (x,)
                if raws:  # served like _move's swap sets
                    ids = tuple(sorted(ids))
                    F._memo[i] = {ids: raws[i][0]} if isfinite(raws[i][0]) else {}
                r, g = None, value(i, ids) - b
            if not ((r is None or g > 0) and (step is None or g >= step * b)):
                r, g = None, 0.0
            replaced.append(r)
            gains.append(g)
        return replaced, gains

    def probe_sets(self, x: int, k: int) -> list:
        """The ``(i, ids)`` of each ``F.value`` call that ``probe`` makes
        for x, not in S, outside the block kernel: one insertion set per
        function below budget k, one swap set per member at it."""
        sets = []
        for i, key in enumerate(self.T):
            if len(key) >= k:
                sets.extend((i, key[:j] + key[j + 1:] + (x,))
                            for j in range(len(key)))
            else:
                sets.append((i, key + (x,)))
        return sets

    def probes(self, F: ObjectiveFamily, xs: Iterable[int], k: int,
               step: float | None = None):
        """Yield ``(x, replaced, gains)``, the ``probe`` of each x of xs not
        in S, in order; the caller changes nothing here until it is done.

        With F's block kernel and no memo scope open, one ``F._block`` call
        per function gives a block of candidates' values, and each probe
        runs in a memo scope that ``_move`` fills: the block memo."""
        xs = (x for x in xs if x not in self.S)
        if F._block is None or F._memo is not None:
            yield from ((x, *self.probe(F, x, k, step)) for x in xs)
            return
        while part := list(islice(xs, max(1, BLOCK_FLOATS // (F.m * k)))):
            vals = None  # the last block's values go before the next's come
            vals = np.zeros((len(part), F.m, k))
            for i, key in enumerate(self.T):
                swap = len(key) >= k
                vals[:, i, :k if swap else 1] = F._block(
                    i, key, part, swap).reshape(len(part), -1)
            vals -= np.array(F._offsets)[:, None]
            for b, x in enumerate(part):
                with F._memo_scope():
                    moves = self.probe(F, x, k, step, vals[b].tolist())
                yield (x, *moves)

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
    return _move(F.value, i, key, x, base)


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

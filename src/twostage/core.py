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
them run the same swap loop, ``_move``, which trusts its caller; the
streaming and greedy drivers call ``_move`` directly on the sorted
per-function tuples they hold and apply the threshold or clamp inline.

The eval contract: every counted evaluation is exactly one call to
``ObjectiveFamily.value``, looked up on the class at call time, and each call
adds one to ``F.evals``.  Nothing is memoised, neither on the family nor in
the primitives, so a code path performs the same evals every time it runs
and eval counts stay the paper's cost measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Iterable, Optional, Sequence


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
    for a fixed code path.
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
        self._offsets = [0.0] * self._m
        self._offsets = [self.value(i, ()) for i in range(self._m)]

    @property
    def m(self) -> int:
        return self._m

    def value(self, i: int, ids: Iterable[int]) -> float:
        """Normalized value of f_i on the given element set (one counted eval)."""
        if not 0 <= i < self._m:
            raise ValueError(f"function index {i} out of range [0, {self._m})")
        key = tuple(sorted(ids))
        if key and not (0 <= key[0] and key[-1] < self._n):
            raise ValueError("element id out of range")
        self.evals += 1
        v = float(self._functions[i](key)) - self._offsets[i]
        if not isfinite(v):
            raise NonFiniteValueError(
                f"function {i} evaluated to {v} on the set {key}")
        return v

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


_NO_MOVE = SwapOutcome(None, 0.0)


def _sorted_ids(A: Iterable[int]) -> tuple:
    """The distinct ids of A as a sorted tuple; a set is sorted without a copy."""
    if not isinstance(A, (set, frozenset)):
        A = set(A)
    return tuple(sorted(A))


def _move(value: Callable[[int, tuple], float], i: int, key: tuple, x: int,
          k: int, base: float) -> tuple:
    """Raw gain of x against the sorted tuple ``key``: ``(replaced, gain)``.

    Unchecked: ``value`` is the bound ``F.value``, ``key`` must not contain
    x, and ``base`` is f_i(key).  Below budget (``len(key) < k``) this is the
    insertion gain.  At budget it is the best single swap of x for some y in
    ``key``; the gain may be negative and ties go to the lowest y.
    """
    if len(key) < k:
        return None, value(i, key + (x,)) - base
    best_y = None
    best_gain = 0.0
    for j, y in enumerate(key):
        gain = value(i, key[:j] + key[j + 1:] + (x,)) - base
        if best_y is None or gain > best_gain:
            best_gain = gain
            best_y = y
    return best_y, best_gain


def _probe(F: ObjectiveFamily, i: int, x: int, key: tuple, k: int,
           base: float | None) -> tuple:
    """``_move`` with its arguments checked and a missing base evaluated.

    Below budget, exactly 0.0 with no eval when x is already in ``key``;
    at budget, ``key`` must be non-empty and must not contain x.
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
    return _move(F.value, i, key, x, k, base)


def marginal(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
             base: float | None = None) -> float:
    """f_i(A + x) - f_i(A); exactly 0 when x is already in A.

    ``base`` lets callers reuse a cached f_i(A) instead of re-evaluating.
    """
    key = _sorted_ids(A)
    # a budget above |A| always takes the insertion path
    return _probe(F, i, x, key, len(key) + 1, base)[1]


def rep(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
        base: float | None = None) -> SwapOutcome:
    """Best single swap of x into A: argmax_{y in A} f_i(A + x - y) - f_i(A).

    The gain may be negative.  Ties break toward the lowest replaced id.
    """
    # budget 0 always takes the swap path
    return SwapOutcome(*_probe(F, i, x, _sorted_ids(A), 0, base))


def nabla(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
          alpha: float, k: int, base: float | None = None) -> SwapOutcome:
    """Thresholded streaming gain of x against A.

    Below budget the insertion gain counts only if it reaches
    (alpha/k) * f_i(A); at budget the best-swap gain must clear the same
    bar.  Anything below the bar contributes 0.  The returned gain is
    always >= 0; ``replaced`` is set only for an accepted swap.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    key = _sorted_ids(A)
    if len(key) > k:
        raise InvariantViolation("per-function solution larger than its budget")
    if base is None:
        base = F.value(i, key)
    threshold = (alpha / k) * base
    replaced, gain = _probe(F, i, x, key, k, base)
    if gain >= threshold and (replaced is None or gain > 0):
        return SwapOutcome(replaced, gain)
    return _NO_MOVE


def lambda_gain(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
                k: int, base: float | None = None) -> SwapOutcome:
    """Greedy additive gain of x against A.

    Plain insertion gain below budget; at budget, the best-swap gain clamped
    at 0.  A zero-gain swap is reported with ``replaced`` unset so callers
    treat it as a no-op.
    """
    key = _sorted_ids(A)
    if len(key) > k:
        raise InvariantViolation("per-function solution larger than its budget")
    if base is None:
        base = F.value(i, key)
    replaced, gain = _probe(F, i, x, key, k, base)
    if replaced is None or gain > 0:
        return SwapOutcome(replaced, gain)
    return _NO_MOVE


def evaluate_solution(F: ObjectiveFamily, sol: TwoStageSolution) -> float:
    """(1/m) sum_i f_i(T_i), recomputed from scratch."""
    for t in sol.per_function:
        if not t <= sol.summary:
            raise ValueError("per-function solution not contained in summary")
    return sum(F.value(i, t) for i, t in enumerate(sol.per_function)) / F.m

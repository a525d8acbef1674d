"""Single-pass solvers: the exchange rule, a known-optimum variant, and the
threshold-guessing framework that removes the need to know the optimum.

The guessing framework maintains one independent exchange run per threshold
on a geometric grid.  The grid is anchored to the running maximum of
singleton averages, which provably brackets the optimum, so one of the
surviving runs always carries a near-correct threshold.
"""

from __future__ import annotations

import math
from operator import index
from typing import Iterable

from .core import (InvariantViolation, ObjectiveFamily, TwoStageSolution,
                   _check_alpha, _Sets, check_budgets, empty_solution,
                   solution_from_sets)
# exchange counts nabla's threshold in _Sets.probe; the name stays bound
# here because perfbench/tracer.py wraps streaming.nabla, and
# test_every_traced_binding_is_an_own_attribute checks that it exists.
from .core import nabla  # noqa: F401

TOL = 1e-9

# The paper's beta: run_know_opt's threshold is opt/(BETA*ell), and the
# guessing grid's lowest threshold is delta/((BETA+eps)*ell).
BETA = 6.0

# Largest instance_bound() * m * ell a ThresholdManager accepts: the grid's
# live instances could store that many per-function entries.  The tests,
# the README sweeps and the benchmark need a few thousand at most;
# epsilon=1e-6 with ell=25 asks for over 10^8 even at m=1.
MAX_INSTANCE_SLOTS = 10 ** 7

# Largest instance_bound() a ThresholdManager accepts, whatever m and ell
# are: an empty StreamState costs about 540 bytes plus 16 per function (600
# at m=5, group token and the unused kept-block slot of ``_Sets`` included),
# so this many cost about 60 MB at m=5.  It
# also bounds one element's eval memo, which holds the m singletons plus at
# most m * (k + 2) sets per live instance, and its groups, each of which
# lists at most m * k probe sets.  The tests need 5,708 at most.
MAX_INSTANCES = 10 ** 5


class InstanceBudgetError(ValueError):
    """The threshold grid would exceed MAX_INSTANCE_SLOTS or MAX_INSTANCES;
    raised before any eval."""


def _check_epsilon(epsilon: float, ell: int):
    """Raise ValueError unless epsilon > 0, 1 + epsilon > 1, and the grid's
    span (1 + epsilon) * beta * ell = (BETA + epsilon) * ell is finite."""
    if not (epsilon > 0 and 1.0 + epsilon > 1.0
            and math.isfinite((BETA + epsilon) * ell)):
        raise ValueError(f"epsilon must be positive, with 1 + epsilon > 1 "
                         f"and a finite grid at ell={ell}, got {epsilon}")


def _instance_bound(epsilon: float, ell: int) -> int:
    """How many thresholds the grid at (epsilon, ell) can hold at once."""
    grid = 1.0 + epsilon
    beta = (BETA + epsilon) / grid
    return math.ceil(math.log(grid * beta * ell, grid)) + 1


def _check_grid(epsilon: float, m: int, ell: int):
    """Raise InstanceBudgetError when the grid at (epsilon, ell) over m
    functions exceeds MAX_INSTANCE_SLOTS or MAX_INSTANCES."""
    bound = _instance_bound(epsilon, ell)
    slots = bound * m * ell
    if slots > MAX_INSTANCE_SLOTS:
        raise InstanceBudgetError(
            f"epsilon={epsilon} allows {bound} threshold "
            f"instances; times m={m} and ell={ell} that is {slots} "
            f"slots, above the limit of {MAX_INSTANCE_SLOTS}")
    if bound > MAX_INSTANCES:
        raise InstanceBudgetError(
            f"epsilon={epsilon} allows {bound} threshold instances, "
            f"above the limit of {MAX_INSTANCES}")


class StreamState(_Sets):
    """Mutable state of one exchange run (one threshold), empty at first;
    ``trace`` holds the ever-in-T_i sets on instrumented runs, else None.

    ``group`` is a token: two states with the same token hold equal ``S``,
    ``T`` and ``base``.  Empty states share the token None, and each
    accepted element gives a state a new one (see ``exchange``)."""

    def __init__(self, m: int, ell: int, k: int, alpha: float, tau: float,
                 instrument: bool = False):
        _check_alpha(alpha)
        super().__init__(m)
        self.ell = ell
        self.k = k
        self.alpha = alpha
        self.tau = tau
        self.trace = [set() for _ in range(m)] if instrument else None
        self.group = None


class _Group:
    """The moves of one element against the states of one group token, and
    their average gain: the group's first state to see the element (its
    leader) probes, and every later one (a follower) reuses them."""

    def __init__(self, m: int, replaced: list, gains: list):
        self.replaced = replaced
        self.gains = gains
        self.avg = sum(gains) / m
        self.sets = None  # the leader's probe sets, listed for a follower
        self.token = object()  # the new token of the states that accept

    def replay(self, F: ObjectiveFamily, u: int, state: StreamState):
        """Make the leader's counted evals again for a follower.  Each set
        is passed as the sorted tuple the element's memo scope stored when
        the leader evaluated it, so each call is counted and served as
        given, without calling f_i and without sorting or checking the set
        again."""
        if self.sets is None:
            self.sets = state.probe_sets(u, state.k)
        value = F.value
        for i, ids in self.sets:
            value(i, ids)


def exchange(F: ObjectiveFamily, u: int, state: StreamState,
             delta: float | None = None, groups: dict | None = None) -> bool:
    """Process one arriving element against one threshold's state.

    Accepts u when the average thresholded gain reaches tau, then applies
    the cached insertion/swap per function.  Duplicates and full summaries
    are rejected without evaluating anything.  An id that is not an integer
    raises ``TypeError``, and one outside the ground set ``ValueError``,
    also when u would be rejected.

    The per-function gain is ``nabla``'s: the raw move of u against T_i
    counts only if it reaches (alpha/k) * f_i(T_i), and a swap only if it
    is also positive; anything else contributes 0.  The moves come from
    ``_Sets.probe`` and are applied by ``_Sets.add``.

    ``groups``, if given, maps the group tokens already seen for u to their
    ``_Group``: a state whose token is there reuses its moves and replays
    its evals instead of probing; inside u's memo scope no replayed eval
    calls f_i.
    """
    if not 0 <= index(u) < F.ground.n:
        raise ValueError(f"element {u} out of range [0, {F.ground.n})")
    if u in state.S or len(state.S) >= state.ell:
        return False
    group = None if groups is None else groups.get(state.group)
    if group is None:
        group = _Group(F.m,
                       *state.probe(F, u, state.k, state.alpha / state.k))
        if groups is not None:
            groups[state.group] = group
    else:
        group.replay(F, u, state)
    replaced, gains, avg = group.replaced, group.gains, group.avg
    if delta is not None and avg > delta + TOL:
        raise InvariantViolation(
            f"average gain {avg} exceeds the running singleton maximum {delta}")
    if avg < state.tau:
        return False

    before = state.total()
    state.add(F, u, replaced, gains)
    state.group = group.token
    if state.trace is not None:
        for i, gain in enumerate(gains):
            if gain > 0:
                state.trace[i].add(u)
        _check_trace_bound(F, state)
        if state.total() - before < state.tau - TOL:
            raise InvariantViolation(
                "accepted element increased the objective by less than tau")
    return True


def _check_trace_bound(F: ObjectiveFamily, state: StreamState):
    """f_i(T_i) must stay within a factor alpha/(alpha+1) of f_i over everything ever kept."""
    ratio = state.alpha / (state.alpha + 1.0)
    for i in range(F.m):
        allowed = ratio * F.value(i, state.trace[i])
        if state.base[i] < allowed - TOL:
            raise InvariantViolation(
                f"function {i}: kept value {state.base[i]} fell below "
                f"{ratio} of its ever-kept value")


def run_know_opt(stream: Iterable[int], F: ObjectiveFamily, opt: float,
                 ell: int, k: int, alpha: float = 1.0,
                 instrument: bool = False) -> TwoStageSolution:
    """Single pass with the fixed threshold opt/(BETA*ell).

    With alpha=1 and an ``opt`` that lower-bounds the true optimum, the
    result is worth at least opt/6.  ``opt`` must be positive and finite.
    """
    if not 0 < opt < math.inf:
        raise ValueError(f"opt must be positive and finite, got {opt}")
    check_budgets(ell, k)
    state = StreamState(F.m, ell, k, alpha, opt / (BETA * ell),
                        instrument=instrument)
    for u in stream:
        exchange(F, u, state)
    return solution_from_sets(F, state.S, state.T, ell, k)


class ThresholdManager:
    """The parallel-instance bookkeeping of the guessing framework.

    Tracks delta (running max of singleton averages), keeps exactly the
    instances whose thresholds sit in the active geometric window, and
    lazily creates newly valid instances empty; elements seen before an
    instance existed could never have been accepted by it.

    Instances that started together and accepted the same elements hold
    the same sets, and ``StreamState.group`` says which do.  So each
    element is probed once per group: the first instance of a group to see
    it (the leader) runs ``_Sets.probe``, and every later one that can take
    it (a follower) reuses the leader's moves, compares their average with
    its own tau, and applies them if it accepts.  A follower still makes
    one counted ``F.value`` call for every set the leader evaluated.  Each
    element is processed inside one ``F._memo_scope()``, which serves those
    replays, and the (i, set)s that instances of different groups share,
    without calling f_i again.  The outputs and eval counts are those of a
    run that probes every instance without the memo.

    Raises ``InstanceBudgetError`` on construction when instance_bound() *
    F.m * ell exceeds ``MAX_INSTANCE_SLOTS`` or instance_bound() exceeds
    ``MAX_INSTANCES``.
    """

    def __init__(self, F: ObjectiveFamily, epsilon: float, ell: int, k: int,
                 alpha: float = 1.0, instrument: bool = False):
        check_budgets(ell, k)
        _check_epsilon(epsilon, ell)
        _check_alpha(alpha)
        self.F = F
        self.epsilon = epsilon
        self.ell = ell
        self.k = k
        self.alpha = alpha
        self.beta = (BETA + epsilon) / (1.0 + epsilon)
        _check_grid(epsilon, F.m, ell)
        self.instrument = instrument
        self.delta = 0.0
        self.instances: dict[int, StreamState] = {}  # exponent -> state
        self.peak_stored = 0
        self.max_instances = 0

    def instance_bound(self) -> int:
        return _instance_bound(self.epsilon, self.ell)

    def _active_range(self) -> range:
        """Integer exponents l with lo <= (1+eps)^l <= delta."""
        grid = 1.0 + self.epsilon
        lo = self.delta / (grid * self.beta * self.ell)
        log = math.log(grid)
        try:
            l_lo = math.ceil(math.log(lo) / log)
            while grid ** l_lo < lo:
                l_lo += 1
            while grid ** (l_lo - 1) >= lo:
                l_lo -= 1
            l_hi = math.floor(math.log(self.delta) / log)
            while grid ** l_hi > self.delta:
                l_hi -= 1
            while grid ** (l_hi + 1) <= self.delta:
                l_hi += 1
        except (OverflowError, ValueError):
            # a grid power overflows, or lo underflowed to 0 for math.log
            raise ValueError(
                f"epsilon={self.epsilon} puts the threshold grid around "
                f"delta={self.delta} outside the float range") from None
        return range(l_lo, l_hi + 1)

    def update_thresholds(self, u: int):
        """Fold u's singleton average into delta and resize the instance window."""
        self.delta = max(self.delta, self.F.singleton_average(u))
        if self.delta <= 0:
            return
        active = self._active_range()
        for l in [l for l in self.instances if l not in active]:
            del self.instances[l]
        grid = 1.0 + self.epsilon
        for l in active:
            if l not in self.instances:
                self.instances[l] = StreamState(
                    self.F.m, self.ell, self.k, self.alpha, grid ** l,
                    instrument=self.instrument)
        if self.instrument and len(self.instances) > self.instance_bound():
            raise InvariantViolation(
                f"{len(self.instances)} live instances exceed the bound "
                f"{self.instance_bound()}")

    def process(self, u: int):
        with self.F._memo_scope():
            self.update_thresholds(u)
            groups = {}
            for l in sorted(self.instances):
                exchange(self.F, u, self.instances[l], delta=self.delta,
                         groups=groups)
        self.max_instances = max(self.max_instances, len(self.instances))
        self.peak_stored = max(
            self.peak_stored,
            sum(len(state.S) for state in self.instances.values()))

    def run(self, stream: Iterable[int]) -> "ThresholdManager":
        for u in stream:
            self.process(u)
        return self

    def best_solution(self) -> TwoStageSolution:
        if not self.instances:
            return empty_solution(self.F.m, self.ell, self.k)
        # max keeps the first maximum, so ties go to the lowest exponent
        best = max((self.instances[l] for l in sorted(self.instances)),
                   key=StreamState.total)
        return solution_from_sets(self.F, best.S, best.T, self.ell, self.k)

    def all_solutions(self) -> list[tuple[float, TwoStageSolution]]:
        """Every surviving (threshold, solution) pair, ordered by exponent."""
        return [(state.tau,
                 solution_from_sets(self.F, state.S, state.T, self.ell, self.k))
                for _, state in sorted(self.instances.items())]


def run_streaming(stream: Iterable[int], F: ObjectiveFamily, epsilon: float,
                  ell: int, k: int, alpha: float = 1.0,
                  instrument: bool = False) -> TwoStageSolution:
    """Full single-pass run with threshold guessing; returns the best instance."""
    mgr = ThresholdManager(F, epsilon, ell, k, alpha=alpha,
                           instrument=instrument)
    return mgr.run(stream).best_solution()

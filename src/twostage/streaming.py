"""Single-pass solvers: the exchange rule, a known-optimum variant, and the
threshold-guessing framework that removes the need to know the optimum.

The guessing framework maintains one independent exchange run per threshold
on a geometric grid.  The grid is anchored to the running maximum of
singleton averages, which provably brackets the optimum, so one of the
surviving runs always carries a near-correct threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .core import (InvariantViolation, ObjectiveFamily, TwoStageSolution,
                   _move, check_budgets, empty_solution, solution_from_sets)
# exchange fuses nabla's threshold into its own loop; the name stays bound
# here because perfbench/tracer.py wraps streaming.nabla, and
# test_every_traced_binding_is_an_own_attribute checks that it exists.
from .core import nabla  # noqa: F401

TOL = 1e-9


def _check_alpha(alpha: float):
    """Raise ValueError unless alpha > 0 (the exchange threshold's factor)."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")


@dataclass
class StreamState:
    """Mutable state of one exchange run (one threshold)."""

    ell: int
    k: int
    alpha: float
    tau: float
    S: set = field(default_factory=set)
    T: list = field(default_factory=list)      # one sorted tuple per function
    base: list = field(default_factory=list)   # cached f_i(T_i)
    trace: list | None = None                  # ever-in-T_i sets, instrumented runs only

    @classmethod
    def fresh(cls, m: int, ell: int, k: int, alpha: float, tau: float,
              instrument: bool = False) -> "StreamState":
        _check_alpha(alpha)
        return cls(ell=ell, k=k, alpha=alpha, tau=tau,
                   T=[()] * m, base=[0.0] * m,
                   trace=[set() for _ in range(m)] if instrument else None)

    def total(self) -> float:
        return sum(self.base) / len(self.base)


def exchange(F: ObjectiveFamily, u: int, state: StreamState,
             delta: float | None = None) -> bool:
    """Process one arriving element against one threshold's state.

    Accepts u when the average thresholded gain reaches tau, then applies
    the cached insertion/swap per function.  Duplicates and full summaries
    are rejected without evaluating anything.

    The per-function gain is ``nabla``'s: the raw move of u against T_i
    counts only if it reaches (alpha/k) * f_i(T_i), and a swap only if it
    is also positive; anything else contributes 0.
    """
    S = state.S
    if u in S or len(S) >= state.ell:
        return False
    if not 0 <= u < F.ground.n:
        raise ValueError(f"element {u} out of range [0, {F.ground.n})")
    m = F.m
    T, base, k = state.T, state.base, state.k
    step = state.alpha / k
    value = F.value
    moves = []
    gains = []
    for i in range(m):
        b = base[i]
        replaced, gain = _move(value, i, T[i], u, k, b)
        if gain >= step * b and (replaced is None or gain > 0):
            moves.append(replaced)
            gains.append(gain)
        else:
            moves.append(None)
            gains.append(0.0)
    avg = sum(gains) / m
    if delta is not None and avg > delta + TOL:
        raise InvariantViolation(
            f"average gain {avg} exceeds the running singleton maximum {delta}")
    if avg < state.tau:
        return False

    before = state.total()
    S.add(u)
    for i, replaced in enumerate(moves):
        if gains[i] > 0:
            T[i] = tuple(sorted([y for y in T[i] if y != replaced] + [u]))
            base[i] = value(i, T[i])
            if state.trace is not None:
                state.trace[i].add(u)
    if state.trace is not None:
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
                 ell: int, k: int, alpha: float = 1.0, beta: float = 6.0,
                 instrument: bool = False) -> TwoStageSolution:
    """Single pass with the fixed threshold opt/(beta*ell).

    With the defaults and an ``opt`` that lower-bounds the true optimum,
    the result is worth at least opt/6.
    """
    if opt <= 0:
        raise ValueError("opt must be positive")
    check_budgets(ell, k)
    state = StreamState.fresh(F.m, ell, k, alpha, opt / (beta * ell),
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
    """

    def __init__(self, F: ObjectiveFamily, epsilon: float, ell: int, k: int,
                 alpha: float = 1.0, beta: float | None = None,
                 instrument: bool = False):
        if epsilon <= 0:
            raise ValueError("epsilon must be positive")
        check_budgets(ell, k)
        _check_alpha(alpha)
        self.F = F
        self.epsilon = epsilon
        self.ell = ell
        self.k = k
        self.alpha = alpha
        self.beta = beta if beta is not None else (6.0 + epsilon) / (1.0 + epsilon)
        self.instrument = instrument
        self.delta = 0.0
        self.instances: dict[int, StreamState] = {}  # exponent -> state
        self.peak_stored = 0
        self.max_instances = 0

    def instance_bound(self) -> int:
        grid = 1.0 + self.epsilon
        return math.ceil(math.log(grid * self.beta * self.ell, grid)) + 1

    def _active_range(self) -> range:
        """Integer exponents l with lo <= (1+eps)^l <= delta."""
        grid = 1.0 + self.epsilon
        lo = self.delta / (grid * self.beta * self.ell)
        log = math.log(grid)
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
                self.instances[l] = StreamState.fresh(
                    self.F.m, self.ell, self.k, self.alpha, grid ** l,
                    instrument=self.instrument)
        if self.instrument and len(self.instances) > self.instance_bound():
            raise InvariantViolation(
                f"{len(self.instances)} live instances exceed the bound "
                f"{self.instance_bound()}")

    def process(self, u: int):
        self.update_thresholds(u)
        for l in sorted(self.instances):
            exchange(self.F, u, self.instances[l], delta=self.delta)
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
                  beta: float | None = None,
                  instrument: bool = False) -> TwoStageSolution:
    """Full single-pass run with threshold guessing; returns the best instance."""
    mgr = ThresholdManager(F, epsilon, ell, k, alpha=alpha, beta=beta,
                           instrument=instrument)
    return mgr.run(stream).best_solution()

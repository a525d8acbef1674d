"""Single-pass solvers: the exchange rule, a known-optimum variant, and the
threshold-guessing framework that removes the need to know the optimum.

The guessing framework maintains one independent exchange instance per
threshold on a geometric grid.  The grid is anchored to the running maximum
of singleton averages, which provably brackets the optimum, so one of the
surviving instances always carries a near-correct threshold.  Instances
that hold the same sets share one state, and those of one state form a run
of consecutive exponents (see ``ThresholdManager``).
"""

from __future__ import annotations

import math
from operator import index
from typing import Iterable

from .core import (BLOCK_FLOATS, InvariantViolation, ObjectiveFamily,
                   TwoStageSolution, _check_alpha, _check_ids, _Sets,
                   check_budgets, empty_solution, solution_from_sets)
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
# are.  The instances of one run share one state (``_GroupState``), and a
# manager's new instances share one empty state, so a live instance costs
# about 70 bytes of its own, its exponent and slot in the instance dict
# (150 with a handle and tau each, 760 when each had its own state), and
# this many about 7 MB.  Each distinct state costs about 515 bytes plus 24
# per function when empty, and filled to budget about 4.4 KB at m=5,
# k=ell=5 or 66 KB at m=10, k=ell=25, mostly the probe table's k bases per
# function (tracemalloc, CPython 3.11).  A manager holds far fewer
# distinct states than live instances (207 instances on about 12 states on
# the stream-coverage shape at epsilon=0.02), but nothing bounds them
# below the instance count.  In run, each state that reaches the
# lookahead's price may add a block of up to LOOKAHEAD_FLOATS floats
# (4 KiB) while a live instance holds it.  The cap also bounds one
# element's probe dict, which holds the m singletons plus at most m entries
# of k calls each per live instance, and its runs' leaders, each of which
# records at most m * k calls.  The tests need 5,708 at most.
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


class _GroupState(_Sets):
    """The sets of one run of threshold instances: ``S``, ``T``, ``base``
    and the probe table ``moves``, which nothing changes once a
    ``ThresholdManager`` holds the state, and ``trace``, the ever-in-T_i
    sets on instrumented runs, else None.  So the state itself is the
    run's token: two exponents share it exactly when they started together
    and accepted the same elements.  Its ell and alpha are its manager's
    (a ``StreamState`` keeps its own).

    ``seen_probes`` counts the elements that its leaders have probed, for
    ``ThresholdManager._lookahead``.  ``kept`` is the lookahead's block of
    kernel values, if any, which stays valid while the state lives."""

    __slots__ = ("trace", "seen_probes")

    def __init__(self, m: int, k: int, instrument: bool = False):
        super().__init__(m, k)
        self.trace = [set() for _ in range(m)] if instrument else None
        self.seen_probes = 0

    def accept(self, F: ObjectiveFamily, x: int, replaced: list,
               gains: list, values: list):
        """Apply x in place: ``_Sets.add``, which makes its counted base
        evals, and x put in the trace sets of the functions it entered,
        each as a new set, so that states may share trace sets."""
        self.add(F, x, replaced, gains, values)
        if self.trace is not None:
            self.trace = [t | {x} if gain > 0 else t
                          for t, gain in zip(self.trace, gains)]

    def accepted(self, F: ObjectiveFamily, x: int, replaced: list,
                 gains: list, values: list) -> "_GroupState":
        """A new state: this one with x accepted.  This one is left as it
        is, and the new one shares its unchanged T_i, table entries and
        trace sets."""
        new = object.__new__(_GroupState)
        new.k, new.kept, new.trace = self.k, None, self.trace
        new.S, new.T = set(self.S), self.T[:]
        new.base, new.moves = self.base[:], self.moves[:]
        new.seen_probes = 0
        new.accept(F, x, replaced, gains, values)
        return new


class StreamState(_GroupState):
    """One exchange instance on its own: a ``_GroupState`` that ``exchange``
    changes in place, with its own ``ell``, ``alpha`` and threshold ``tau``.
    Checks tau (ValueError unless 0 <= tau < inf: tau 0.0 accepts every
    gain, and a NaN tau would too), then ell and k, then alpha."""

    __slots__ = ("ell", "alpha", "tau")

    def __init__(self, m: int, ell: int, k: int, alpha: float, tau: float,
                 instrument: bool = False):
        if not 0 <= tau < math.inf:
            raise ValueError(f"tau must be non-negative and finite, got {tau}")
        check_budgets(ell, k)
        _check_alpha(alpha)
        super().__init__(m, k, instrument)
        self.ell, self.alpha, self.tau = ell, alpha, tau


# A state's leaders probe set by set until they have made this many evals
# per function, which a held state, as it never changes, reaches after
# ceil(KERNEL_CALL_EVALS * m / E) probes of E = sum(len(bases)) evals each;
# only then may ``ThresholdManager._lookahead`` fill a block for it.  A
# block costs m kernel calls, and an exemplar kernel call at 30 candidates
# costs as much as about 6 (one base) to 12 (three bases) sets probed set
# by set, which the exemplar row kernel serves (19 and 33 us against about
# 3 us a set on a 2-core Xeon, where ``value`` computing the set costs
# about 4 us), but most of a short-lived state's evals repeat an (i, T_i)
# that another run probed in the same element (the probe dict).  On the
# distributed-exemplar benchmark, before the row kernel, a price of 16
# made 2,420 kernel calls to save 5,291 f_i calls, and was slower
# (0.72-0.73 s against 0.69-0.71 s at 64, 3 pairs), and the row kernel
# has made the set-by-set probes that a block saves cheaper since.  At 64
# its states never reach it, while on criterion 8's facility instance,
# whose states live for up to 1,345 probes, 35 states reach it, after 17
# to 65 probes.
KERNEL_CALL_EVALS = 64

# The floats one lookahead block holds at most, k per function and arrival.
# A run keeps a block per long-lived state, where greedy keeps one in all.
# The exemplar run of test_grouped_run_keeps_no_tuple_per_exchange peaks at
# 48 KiB with this, and at 74 KiB with BLOCK_FLOATS (22 KiB with no
# lookahead); on criterion 8, halving it again cost fast about 25%.
LOOKAHEAD_FLOATS = BLOCK_FLOATS // 2


def _average(gains: list, delta: float | None) -> float:
    """The average of the gains; with delta given, InvariantViolation if it
    exceeds delta, the running singleton maximum."""
    avg = sum(gains) / len(gains)
    if delta is not None and avg > delta + TOL:
        raise InvariantViolation(
            f"average gain {avg} exceeds the running singleton maximum {delta}")
    return avg


def exchange(F: ObjectiveFamily, u: int, state: StreamState,
             delta: float | None = None) -> bool:
    """Process one arriving element against one threshold's state.

    Accepts u when the average thresholded gain reaches tau, and applies
    the cached insertion/swap per function to ``state`` in place
    (``_GroupState.accept``).  Duplicates and full summaries are rejected
    without evaluating anything.  u is checked (``_check_ids``) first, also
    when it would be rejected.

    The per-function gain is ``nabla``'s: the raw move of u against T_i
    counts only if it reaches (alpha/k) * f_i(T_i), and a swap only if it
    is also positive; anything else contributes 0.  The moves come from
    ``_Sets.probe`` and are applied by ``_Sets.add``.  This is the rule of
    one instance; ``ThresholdManager.process`` applies it to runs of
    instances that share a state.
    """
    _check_ids((u,), F.ground.n)
    if u in state.S or len(state.S) >= state.ell:
        return False
    replaced, gains, values = state.probe(F, u, state.alpha / state.k)
    if _average(gains, delta) < state.tau:
        return False
    before = state.total()
    state.accept(F, u, replaced, gains, values)
    if state.trace is not None:
        _check_accepted(F, state, before, state.tau, state.alpha)
    return True


def _check_accepted(F: ObjectiveFamily, state: _GroupState, before: float,
                    tau: float, alpha: float):
    """The lemmas an acceptance at threshold tau keeps, checked on
    instrumented states: f_i(T_i) stays within a factor alpha/(alpha+1) of
    f_i over everything ever kept, and the total rose from ``before`` by at
    least tau."""
    ratio = alpha / (alpha + 1.0)
    for i in range(F.m):
        allowed = ratio * F.value(i, state.trace[i])
        if state.base[i] < allowed - TOL:
            raise InvariantViolation(
                f"function {i}: kept value {state.base[i]} fell below "
                f"{ratio} of its ever-kept value")
    if state.total() - before < tau - TOL:
        raise InvariantViolation(
            "accepted element increased the objective by less than tau")


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

    ``instances`` maps each live exponent l (tau = (1+epsilon)**l) to its
    ``_GroupState``.  Exponents that started together and accepted the
    same elements share one state, and those of one state form a run of
    consecutive exponents: new ones join the empty state at the top, the
    window drops the bottom, and an element splits a run where its average
    gain meets the taus, the lower ones accepting.  So memory follows the
    distinct states, not the live instances.

    ``process`` walks the exponents in order.  A run's first (its leader)
    probes the element (``_Sets.probe``), recording each counted eval as
    ``(i, ids, v)``, and checks the average gain against delta; each later
    one makes those evals again as ``value`` calls served the recorded
    values, so none calls f_i.  Each compares the average with its own
    tau.  The first accepter builds the new state, copy-on-write
    (``_GroupState.accepted``), and each later one takes it, making the
    first's base evals again as served calls; rejecters keep the old
    state.  Outputs and evals are those of giving every instance its own
    ``StreamState`` and calling ``exchange`` on it.  The element's id is
    checked by ``update_thresholds``' first ``value`` call, before any
    eval.

    The leaders of one element share its probe dict (``_Sets.probe``'s
    ``seen``), seeded with the element's singletons, so each (i, T_i) that
    several runs hold is probed once per element and made again by the
    others as served calls.  In ``run``, on a family with a block kernel,
    the leaders of a long-lived state are served from kernel blocks over
    the arrivals ahead (see ``_lookahead``).

    The per-element bookkeeping is redone only when something changed.
    The window depends on delta alone, so ``update_thresholds`` moves it
    only when delta rises.  ``stored``, the elements the live instances
    hold between them, is a running count: one more per accepting
    instance, and an instance's |S| less when the window drops it;
    ``peak_stored`` is its largest value after an element.

    Raises ``InstanceBudgetError`` on construction when instance_bound() *
    F.m * ell exceeds ``MAX_INSTANCE_SLOTS`` or instance_bound() exceeds
    ``MAX_INSTANCES``.
    """

    # run's buffered stream while it runs, if F has a block kernel, and the
    # position in it of the element in process
    _stream, _t = None, 0

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
        self.instances: dict[int, _GroupState] = {}  # exponent -> state
        # the state of the new exponents
        self._empty = _GroupState(F.m, k, instrument)
        self.stored = 0  # sum of len(state.S) over the live instances
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

    def update_thresholds(self, u: int) -> list:
        """Fold u's singleton average into delta and, if delta rose, move
        the instance window: it depends on delta alone.  Returns u's
        singleton values f_i({u}) by function.  A rise whose window is
        outside the float range raises ``ValueError`` and leaves delta as
        it was."""
        F = self.F
        singles = [F.value(i, (u,)) for i in range(F.m)]
        average = sum(singles) / F.m  # as F.singleton_average(u)
        if not average > self.delta:
            return singles
        delta, self.delta = self.delta, average
        try:
            active = self._active_range()
        except ValueError:
            self.delta = delta  # the window still matches delta
            raise
        for l in [l for l in self.instances if l not in active]:
            self.stored -= len(self.instances.pop(l).S)
        for l in active:
            self.instances.setdefault(l, self._empty)
        if self.instrument and len(self.instances) > self.instance_bound():
            raise InvariantViolation(
                f"{len(self.instances)} live instances exceed the bound "
                f"{self.instance_bound()}")
        return singles

    def _lookahead(self, u: int, state: _GroupState):
        """The kernel values of u, not in S, by (function, set) for
        ``state.probe``, or None if u is to be probed set by set; ``run``
        asks, over its buffered stream.  A state's leaders probe set by
        set until they have made ``KERNEL_CALL_EVALS`` evals per function,
        a number of probes (``seen_probes``; see ``KERNEL_CALL_EVALS``).
        Then a leader that finds no row for its element fills the state's
        block (``_Sets._block_values``) over the element and the arrivals
        after it: as many as the state's leaders have probed, in at most
        ``LOOKAHEAD_FLOATS`` floats, and keeps it in ``kept``.  Arrivals
        that are not integer ids in range, are in S or repeat are left out,
        so they raise or are skipped where the scalar path does.  A row
        holds one element's values against the state's frozen sets, so it
        serves the element's later arrivals too."""
        if not state.S:  # empty states: the singletons, in the probe dict
            return None
        F = self.F
        state.seen_probes += 1
        if state.kept is not None:
            row_of, vals, _ = state.kept
            r = row_of.get(u)
            if r is not None:
                return vals[r].tolist()
            state.kept = None  # past the block: its values go first
        evals = sum(len(bases) for bases, _ in state.moves)
        if (state.seen_probes - 1) * evals < KERNEL_CALL_EVALS * F.m:
            return None
        rows = min(state.seen_probes,
                   max(1, LOOKAHEAD_FLOATS // (F.m * state.k)))
        xs = {}
        for x in self._stream[self._t:self._t + rows]:
            try:
                if 0 <= index(x) < F.ground.n and x not in state.S:
                    xs[x] = None
            except TypeError:
                pass
        vals, row_of = state._block_values(F, list(xs), True)
        return vals[row_of[u]].tolist()

    def process(self, u: int):
        F, instances = self.F, self.instances
        ahead = self._stream is not None
        value, grid, step = F.value, 1.0 + self.epsilon, self.alpha / self.k
        # the empty T_i's move is u's singleton, which update_thresholds made
        seen = [{(): (None, v, v, [(i, (u,), v)])}
                for i, v in enumerate(self.update_thresholds(u))]
        leader = None
        for l in sorted(instances):
            state = instances[l]
            if state is not leader:  # the first exponent of a run
                leader, calls, new = state, None, None
                if u in state.S or len(state.S) >= self.ell:
                    continue
                calls = []
                raws = self._lookahead(u, state) if ahead else None
                replaced, gains, values = state.probe(F, u, step, raws, calls,
                                                      seen)
                avg = _average(gains, self.delta)
            elif calls is None:
                continue
            else:
                for i, ids, v in calls:
                    value(i, ids, v)
            tau = grid ** l
            if avg < tau:
                continue
            if new is None:
                new = state.accepted(F, u, replaced, gains, values)
            else:
                for i, gain in enumerate(gains):
                    if gain > 0:
                        value(i, new.T[i], new.base[i])
            instances[l] = new
            if new.trace is not None:
                _check_accepted(F, new, state.total(), tau, self.alpha)
            self.stored += 1
        self.max_instances = max(self.max_instances, len(self.instances))
        self.peak_stored = max(self.peak_stored, self.stored)

    def run(self, stream: Iterable[int]) -> "ThresholdManager":
        """``process`` each element in turn.  With F's block kernel the
        stream is buffered, so that long-lived states' leaders can be
        served from blocks over the arrivals ahead (see ``_lookahead``).  A
        block goes with its state, when no live instance holds it, and the
        live states' blocks go when the run ends."""
        if self.F._block is None:
            for u in stream:
                self.process(u)
            return self
        self._stream = list(stream)
        try:
            for self._t, u in enumerate(self._stream):
                self.process(u)
        finally:
            self._stream = None
            for state in self.instances.values():
                state.kept = None
        return self

    def best_solution(self) -> TwoStageSolution:
        if not self.instances:
            return empty_solution(self.F.m, self.ell, self.k)
        # max keeps the first maximum, so ties go to the lowest exponent
        best = max((self.instances[l] for l in sorted(self.instances)),
                   key=_Sets.total)
        return solution_from_sets(self.F, best.S, best.T, self.ell, self.k)

    def all_solutions(self) -> list[tuple[float, TwoStageSolution]]:
        """Every surviving (threshold, solution) pair, ordered by exponent.

        Each solution is checked (``TwoStageSolution.check``) before its
        evals, and each (i, T_i) that the live states hold is evaluated
        once: every later eval of it, by another instance of its run or by
        another state that holds the same T_i, is served that value."""
        grid, F, known, out = 1.0 + self.epsilon, self.F, {}, []
        for l, state in sorted(self.instances.items()):
            sol = TwoStageSolution(frozenset(state.S),
                                   tuple(map(frozenset, state.T)), 0.0,
                                   self.ell, self.k)
            sol.check()
            values = []
            for i, t in enumerate(state.T):
                known[i, t] = v = F.value(i, t, known.get((i, t)))
                values.append(v)
            sol.value = sum(values) / F.m  # as evaluate_solution sums
            out.append((grid ** l, sol))
        return out


def run_streaming(stream: Iterable[int], F: ObjectiveFamily, epsilon: float,
                  ell: int, k: int, alpha: float = 1.0,
                  instrument: bool = False) -> TwoStageSolution:
    """Full single-pass run with threshold guessing; returns the best instance."""
    mgr = ThresholdManager(F, epsilon, ell, k, alpha=alpha,
                           instrument=instrument)
    return mgr.run(stream).best_solution()

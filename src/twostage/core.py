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
validate the candidate and the set, and evaluate a missing base.  Each
move is ``_move``'s, the insertion below budget or the best swap at it,
which trusts its caller.  The greedy and streaming drivers keep their
solution in a ``_Sets``, whose ``probe`` counts a candidate's moves by
the clamp or the threshold, whose ``best`` finds greedy's move of a
round, and whose ``add`` applies them.
Every probe adds x to the sets of one probe table, ``_Sets.moves``, one
entry per function, which ``add`` rebuilds only where it changes T_i.

The eval contract: every counted evaluation is exactly one call to
``ObjectiveFamily.value``, looked up on the class at call time, and each call
adds one to ``F.evals``.  ``F.evals`` is the logical count, the paper's cost
measure: a code path performs the same evals every time it runs.  Four
sources serve evals from values already computed rather than from the
objective; each is still one ``value`` call, passed the value as
``served`` (see ``ObjectiveFamily.value``), which for a finite value
calls no f_i and sorts and checks nothing:

* the element's probe dict, in ``ThresholdManager.process``.  It maps
  each (i, T_i) that a leader (a run's first instance) probed for the
  element to that function's raw move and recorded ``(i, ids, v)`` calls
  (``_Sets.probe``'s ``seen``, one dict per function i); a later leader
  that holds the same T_i makes those calls again and reuses the move.
  Its (i, ()) entries are the element's singletons, which
  ``update_thresholds`` computed.
* the values of earlier calls.  ``_Sets.add`` serves each new T_i's eval
  the value that the probe which chose the move got for that set.  In
  ``ThresholdManager.process`` every later instance of a run makes its
  leader's recorded calls again, and every accepter after the run's
  first makes the first's ``add`` evals again, served the new state's
  ``base[i]``.  ``ThresholdManager.all_solutions`` evaluates each
  (i, T_i) of its states once and serves every later eval of it.
* the values of F's block kernel, in two steps.  ``F._block(i, bases)``
  reduces one table entry's bases once and returns the entry's fill,
  which gives every base plus x for any candidates x at once.  A fill
  lives in one place, ``_Sets.fills[i]``, from the first read of it
  that returns until ``add`` rebuilds the entry: a miss makes the fill
  and stores it only once a read of it has returned, so a fill that
  raises is not kept.  Greedy (``_Sets.best``) writes each function's
  fill into a block of its candidates (``_Sets._block_values``), so
  it reduces each entry's bases once, however many rounds and blocks
  read it.  A greedy candidate's evals are ``value`` calls served
  its row, in the order that its probe would make them, by the round's
  served plan: each probe set's (i, base) in that order, and the set's
  column in the row flattened to m * k floats.  Only the candidate of
  each block that ``_Sets._first_best`` finds in numpy is probed, or
  every candidate of a block that holds a value that is not finite in a
  candidate's row.  When a greedy round's candidates fit in one block,
  the ``_Sets`` keeps that block for the solver call, and a column stays
  current while the fill that wrote it is still ``fills[i]``; so a later
  round writes only the columns of the entries that changed, and every
  other value is the one computed for the same candidate against the
  same T_i.  A streaming leader that misses the probe dict, on a family
  without a row kernel, reads x's one row from its entry's fill and
  records its served values like any other.
* the values of F's row kernel.  A ``_Sets.probe`` that is given no
  kernel values hands x and each function's bases that it probes to
  ``F._row(i, x, bases)``, if F has one, and gets f_i(b + (x,)) for each
  (the coverage family ORs its bitmasks, the exemplar family sums each
  base's chain of maxima with x's row of its similarity table); each
  value, less the offset, is served to its ``value`` call.  So every
  coverage probe is served: streaming leaders, greedy and
  ``run_know_opt``; and so is every exemplar probe that no greedy block
  serves: streaming leaders, a bare ``exchange`` and ``run_know_opt``.

Nothing is memoised.  No served value's ids are checked again; see
``_check_ids`` for where they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from operator import index
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


def _check_ids(ids: Iterable, n: int):
    """The one element-id check: raise TypeError unless every id is an
    integer (``operator.index``), ValueError unless it is in [0, n).

    Every id a solver evaluates was checked here where it entered the
    library, before any eval: by ``exchange`` (the arriving element),
    ``replacement_greedy`` (its candidates), ``_Sets._block_values`` (a
    block's candidates, before any kernel call), ``_probe`` (a gain
    primitive's candidate), ``evaluate_solution`` (a summary) and
    ``ObjectiveFamily.value`` (every set it is not served a value for),
    which is how ``ThresholdManager.process`` checks its arrival, in
    ``update_thresholds``' first singleton.  T_i only ever holds checked
    ids, so the values served for its probe sets (see the eval contract
    above) need no check.  Where a set's ids fail to sort (None or a
    string among integers), ``value`` and ``_key`` check them here, so
    the error names the id.
    """
    for e in ids:
        try:
            inside = 0 <= index(e) < n
        except TypeError:
            raise TypeError(f"element ids must be integers, got {e!r}") from None
        if not inside:
            raise ValueError(f"element id {e} out of range [0, {n})")


def _check_seed(seed):
    """Raise TypeError unless ``seed`` is an integer (``None`` draws OS
    entropy, so it is refused too), ValueError if it is negative."""
    try:
        seed = index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


class InvariantViolation(AssertionError):
    """An instrumented run observed a state that should be impossible."""


class NonFiniteValueError(ValueError):
    """An objective function returned NaN or an infinity."""


@dataclass(frozen=True)
class GroundSet:
    """The n selectable elements plus opaque per-element payload.

    Elements are dense integer ids ``0..n-1``.  ``payload`` is whatever the
    objective implementations need (points, feature vectors, nothing).
    Raises TypeError unless ``n`` is an integer.
    """

    n: int
    payload: Sequence = ()

    def __post_init__(self):
        if index(self.n) < 1:
            raise ValueError("ground set must contain at least one element")

    def elements(self) -> range:
        return range(self.n)


class ObjectiveFamily:
    """An ordered family of m monotone submodular functions over one ground set.

    Functions are normalized at construction so that every member evaluates
    to exactly 0 on the empty set.  Every set evaluation increments ``evals``;
    the complexity regression tests depend on that count being deterministic
    for a fixed code path.  ``_block`` is None or the family's block
    kernel, in two steps: ``_block(i, bases)`` reduces the bases of one
    probe-table entry (see ``_moves``) once and returns the entry's fill,
    and ``fill(xs, out=None)`` gives the raw f_i(b + (x,)) for each x of
    ``xs`` and each b of ``bases``, with shape (len(xs), len(bases)),
    written into ``out`` (an array of that shape, such as a view of a
    block) if given, and returned.  A fill serves any number of blocks,
    and of a streaming leader's single rows, for as long as the eval
    contract above keeps it.
    ``_table_floats`` is the logical number of floats in the tables the
    kernel reads, as if each function kept its own, whatever the family
    stores (0 without a kernel); it sizes greedy's blocks (``_Sets.best``).
    ``_row`` is None or the family's row kernel ``_row(i, x, bases)``: for
    one function's probe-table bases (``_Sets.moves[i][0]``) and an x in
    none of them, the list of the raw f_i(b + (x,)) for each base b, as
    floats.  It suits a family that can give one candidate's few sets for
    less than ``value``'s sort, id check and f_i call on each: coverage's
    bitmask ORs, exemplar's chains of maxima over similarity rows.  It
    serves every ``_Sets.probe`` that is given no kernel values (see the
    eval contract above).
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
        self._block = None
        self._row = None
        self._table_floats = 0
        self._offsets = [0.0] * self._m
        self._offsets = [self.value(i, ()) for i in range(self._m)]

    @property
    def m(self) -> int:
        return self._m

    def value(self, i: int, ids: Iterable[int],
              served: float | None = None) -> float:
        """Normalized value of f_i on the given element set (one counted eval).

        ``i`` is checked first: one that does not compare with an integer
        (None, a string) raises ``TypeError``, one out of range
        ``ValueError``, and every call that passes the checks is counted.
        Internal: ``served`` is a normalized value already computed for this
        set, by a block or row kernel or by an earlier call (see the eval
        contract above); if it is finite, it is counted and returned next,
        without the sort or the id check, and without checking that ``i``
        is an integer (the callers that serve pass a loop index).  Any other
        call raises ``TypeError`` unless ``i`` is an integer, sorts the ids
        and checks them (``_check_ids``) before it is counted, and calls f_i
        on the sorted tuple; a non-finite value raises.  Ids that are not a
        tuple are made one first, so that a generator outlives the sort for
        the id check.
        """
        try:
            if not 0 <= i < self._m:
                raise ValueError(
                    f"function index {i} out of range [0, {self._m})")
        except TypeError:  # not comparable with an int: None, a string
            raise TypeError(
                f"function index must be an integer, got {i!r}") from None
        if served is not None and isfinite(served):
            self.evals += 1
            return served
        try:
            index(i)
        except TypeError:
            raise TypeError(
                f"function index must be an integer, got {i!r}") from None
        if type(ids) is not tuple:  # a generator must outlive the sort
            ids = tuple(ids)
        try:
            key = tuple(sorted(ids))
        except TypeError:  # an id that does not sort: None, a string
            _check_ids(ids, self._n)
            raise
        _check_ids(key, self._n)
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
    """A solution of the given sets, its value from ``evaluate_solution``,
    which checks it before any eval."""
    sol = TwoStageSolution(frozenset(summary),
                           tuple(frozenset(t) for t in per_function),
                           0.0, ell, k)
    sol.value = evaluate_solution(F, sol)
    return sol


def _moves(key: tuple, k: int) -> tuple:
    """The probe-table entry ``(bases, replaced)`` of the sorted ``key`` at
    budget k: the sets a probe adds its candidate x to, and the members x
    may replace.  Below budget that is ``([key], None)``, an insertion; at
    it, ``key`` without ``key[j]`` for each j, and ``key``, a swap.

    A block kernel (see ``ObjectiveFamily``) takes ``bases`` as given here:
    ``F._block(i, bases)`` reduces each base's rows once, and its fill
    combines the result with every candidate's row of a block ``xs`` at
    once, with no x of ``xs`` in a base.
    """
    if len(key) < k:
        return [key], None
    return [key[:j] + key[j + 1:] for j in range(len(key))], key


# The entry of every empty T_i below budget, shared by all functions and
# states until ``_Sets.add`` first changes one.
_EMPTY_MOVES = _moves((), 1)


def _move(value: Callable[..., float], i: int, bases: list,
          key: tuple | None, x: int, base: float, raw: list | None = None,
          calls: list | None = None) -> tuple:
    """The move of x against the probe-table entry ``(bases, key)``, as
    ``(y, gain, v)`` with v the value of the set it makes: below budget
    (``key`` None) the insertion, y None; at it the best swap of x for a
    y in ``key``, whose gain may be negative, ties going to the lowest y.

    Unchecked: ``value`` is the bound ``F.value``, ``(bases, key)`` is
    ``_moves(T_i, k)`` for a T_i without x, and ``base`` is f_i(T_i).
    ``raw``, if given, has the probe sets' kernel values by j, each passed
    to its ``value`` call as ``served``.  ``calls``, if given, gets each
    ``value`` call's ``(i, ids, v)`` appended.
    """
    if key is None:
        ids = bases[0] + (x,)
        v = value(i, ids) if raw is None else value(i, ids, raw[0])
        if calls is not None:
            calls.append((i, ids, v))
        return None, v - base, v
    best_y = None
    best_gain = best_v = 0.0
    for j, y in enumerate(key):
        ids = bases[j] + (x,)
        v = value(i, ids) if raw is None else value(i, ids, raw[j])
        if calls is not None:
            calls.append((i, ids, v))
        gain = v - base
        if best_y is None or gain > best_gain:
            best_gain, best_y, best_v = gain, y, v
    return best_y, best_gain, best_v


# The floats one block of greedy's (``_Sets.best``) holds at most, k per
# function and candidate: this, or an eighth of F's kernel tables
# (``F._table_floats``) when that is more, so that a family whose tables
# are large resolves every candidate of a round in one block, which the
# ``_Sets`` keeps for the next round.
BLOCK_FLOATS = 1024


class _Sets:
    """A two-stage solution under construction at budget k: the summary
    ``S``, one sorted tuple ``T[i]`` per function, its cached value
    ``base[i]``, its probe-table entry ``moves[i]``, which is
    ``_moves(T[i], k)``, and ``fills[i]``, the entry's fill once a read
    of it has returned, or None (see the module docstring)."""

    __slots__ = ("k", "S", "T", "base", "moves", "fills", "kept")

    def __init__(self, m: int, k: int):
        self.k = k
        self.S = set()
        self.T = [()] * m
        self.base = [0.0] * m
        self.moves = [_EMPTY_MOVES] * m
        self.fills = [None] * m
        self.kept = None  # greedy's block, see ``_block_values``

    def probe(self, F: ObjectiveFamily, x: int, step: float | None = None,
              raws: list | None = None, calls: list | None = None,
              seen: list | None = None) -> tuple:
        """The moves of x, not in S, as ``(replaced, gains, values)`` lists
        by function, ``_move``'s; ``values[i]`` is the value of the set
        that the move would make T_i, which ``add`` is served.

        A gain counts as ``lambda_gain``'s if ``step`` is None, else as
        ``nabla``'s with the bar ``step * base[i]``; one that does not count
        is 0.0 with replaced None.  ``raws`` has x's kernel values by
        (function, j); without it they come from F's row kernel if F has
        one, else, for a leader (``seen`` given) on a family with a block
        kernel, from the one row x of the entry's fill (``fills``); both
        less the offsets.  Otherwise
        every set is evaluated by f_i.  x must be a checked id (see
        ``_check_ids``).

        ``calls`` and ``seen`` are given, together, only by
        ``ThresholdManager.process``.  ``calls`` gets the ``(i, ids, v)`` of
        each counted ``value`` call appended, in eval order: ``ids`` is the
        tuple passed and ``v`` the value returned, so that ``value(i, ids,
        v)`` makes the same counted eval again as a served one.  ``seen`` is
        the element's probe dict, one dict per function: ``seen[i]`` maps
        a T_i to the raw ``(replaced, gain, value)`` of x against it and
        its calls.  A function found there makes those calls again and
        reuses the move, with no f_i or kernel call; any other is probed
        and stored there.
        """
        value, offsets = F.value, F._offsets
        T, base, fills = self.T, self.base, self.fills
        replaced, gains, values = [], [], []
        row = F._row if raws is None else None
        # without a row kernel, a leader's miss reads its entry's fill
        block = None if raws or row or seen is None else F._block
        xs = [x]  # the one row a fill gives
        for i, (bases, key) in enumerate(self.moves):
            b = base[i]
            got = seen and seen[i].get(T[i])
            if got:
                r, g, v, made = got
                for call in made:
                    value(*call)
                calls += made
            else:
                made = None if seen is None else []
                if block is not None:  # a fill is kept once read
                    fill = fills[i] or block(i, bases)
                    raw = fill(xs).tolist()[0]
                    fills[i] = fill
                elif row is not None:
                    raw = row(i, x, bases)
                else:
                    raw = raws and raws[i]
                if offsets[i] and raws is None and raw:  # a kernel's values
                    raw = [v - offsets[i] for v in raw]  # v - 0.0 is v
                r, g, v = _move(value, i, bases, key, x, b, raw, made)
                if seen is not None:
                    seen[i][T[i]] = r, g, v, made
                    calls += made
            if not ((r is None or g > 0) and (step is None or g >= step * b)):
                r, g = None, 0.0
            replaced.append(r)
            gains.append(g)
            values.append(v)
        return replaced, gains, values

    def probes(self, F: ObjectiveFamily, xs: Iterable[int]):
        """Yield ``(x, replaced, gains, values)``, the ``probe`` of each
        distinct x of xs not in S, in order of first appearance, made with
        F's row kernel or set by set; the caller changes nothing here until
        it is done."""
        for x in dict.fromkeys(x for x in xs if x not in self.S):
            yield (x, *self.probe(F, x))

    def best(self, F: ObjectiveFamily, xs: Iterable[int]):
        """Greedy's round: the ``(x, replaced, gains, values)`` of the
        distinct x of xs not in S whose gains, ``lambda_gain``'s, have the
        largest ``sum``, the first such x on a tie; None unless a sum is
        positive.

        Without F's block kernel, every x is probed (``probes``).  With it,
        the candidates' values come in blocks (``_block_values``), and only
        the x that ``_first_best`` finds in each block is probed, served its
        row; every other x makes its evals as ``value`` calls served the
        block's values, in the order that its probe would.  So the evals,
        and each value call, are the same on both paths.  When the
        candidates fit in one block, that block is kept for the next
        call."""
        if F._block is None:
            moves = self.probes(F, xs)
        else:
            moves = self._block_moves(F, xs)
        top, best = 0.0, None
        for move in moves:
            total = sum(move[2])
            if total > top:  # strict: ties keep the first x
                top, best = total, move
        return best

    def _block_moves(self, F: ObjectiveFamily, xs: Iterable[int]):
        """``best``'s moves with F's block kernel: per block, the probe of
        the x that ``_first_best`` finds, or of every x if it finds none,
        so that ``value`` evaluates each set whose value is not finite.
        Every other x makes its evals by the round's served plan: one
        ``value`` call per (i, base), served the value at the plan's column
        of x's row flattened, one ``tolist`` per row.  Every block reads
        the entries' fills (``fills``)."""
        xs = list(dict.fromkeys(x for x in xs if x not in self.S))
        size = max(1, max(BLOCK_FLOATS, F._table_floats // 8) // (F.m * self.k))
        value, k, one = F.value, self.k, len(xs) <= size
        # the round's served plan: each probe set's i and base, in probe
        # order, and its column in a row of the block flattened to m * k
        plan_i = [i for i, (bases, _) in enumerate(self.moves) for _ in bases]
        plan_b = [b for bases, _ in self.moves for b in bases]
        pos = np.array([i * k + j for i, (bases, _) in enumerate(self.moves)
                        for j in range(len(bases))])
        for start in range(0, len(xs), size):
            part = xs[start:start + size]
            # the last block's values, and its view, go before the next's come
            vals = flat = row_of = rows = None
            vals, row_of = self._block_values(F, part, one)
            flat = vals.reshape(len(vals), -1)
            rows = [row_of[x] for x in part]
            first = self._first_best(vals, rows)
            for s, (x, r) in enumerate(zip(part, rows)):
                if first is None or s == first:
                    yield (x, *self.probe(F, x, None, vals[r].tolist()))
                    continue
                x = (x,)
                for i, b, v in zip(plan_i, plan_b, flat[r].take(pos).tolist()):
                    value(i, b + x, v)

    def _first_best(self, vals: np.ndarray, rows: list) -> int | None:
        """The index in ``rows`` of the first row of the block ``vals``
        whose gains, ``probe``'s without a step, have the largest total,
        or None if a value in the block is not finite.  The rows of a kept
        block whose candidates are in S hold zeros (``_block_values``).

        A function's gain is its value less its base: the insertion's below
        budget, and at it the largest swap's, clamped at 0.  The largest
        values are taken one base at a time over every row and function, so
        that no temporary holds more than one float per row and function.
        A total adds the gains in function order, as ``sum`` does before
        Python 3.12, so the row found has the largest ``sum`` there."""
        if not (isfinite(vals.max()) and isfinite(vals.min())):
            return None
        gains = vals[:, :, 0].copy()
        for j in range(1, self.k):
            np.maximum(gains, vals[:, :, j], out=gains)
        floor = []
        for i, (_, key) in enumerate(self.moves):
            if key is None:  # one base: the max over j took unused columns
                gains[:, i] = vals[:, i, 0]
            floor.append(-inf if key is None else 0.0)
        gains -= self.base
        np.maximum(gains, floor, out=gains)
        np.add.accumulate(gains, axis=1, out=gains)
        return int(gains[rows, -1].argmax())

    def _block_values(self, F: ObjectiveFamily, xs: list, keep: bool) -> tuple:
        """The values of the probe sets of xs, distinct and none in S, from
        F's kernel less the offsets, by (row, function, j), and the row of
        each x.

        The block is new, unless ``keep`` and the kept block has a row for
        every x: then a function's column is reused while the fill that
        wrote it is still ``fills[i]``, and refilled for the rows not in S
        if not, and the rows of the block's candidates that are in S are
        zeroed.  A new block is kept if ``keep``.  A column is written by
        the entry's fill (``fills``), and counts as written only once the
        fill has returned; a value that is not finite stays in the block,
        and ``value`` does not serve it.  The ids of xs are checked
        (``_check_ids``) before any kernel call."""
        _check_ids(xs, F.ground.n)
        kept = self.kept if keep else None
        if kept is None or any(x not in kept[0] for x in xs):
            kept = ({x: r for r, x in enumerate(xs)},
                    np.zeros((len(xs), F.m, self.k)), [None] * F.m)
            if keep:
                self.kept = kept
        row_of, vals, wrote = kept
        live = [x for x in row_of if x not in self.S]
        if len(live) == len(row_of):
            rows = slice(None)  # a view of the block: each fill writes there
        else:
            rows = [row_of[x] for x in live]
            # the rows of candidates in S are never refilled or served
            # again; zeroed, none holds a stale value that is not finite
            vals[[row_of[x] for x in self.S if x in row_of]] = 0.0
        for i, (bases, _) in enumerate(self.moves):
            fill = self.fills[i]
            if fill is None or wrote[i] is not fill:
                fill = fill or F._block(i, bases)
                if type(rows) is slice:
                    fill(live, vals[rows, i, :len(bases)])
                else:
                    vals[rows, i, :len(bases)] = fill(live)
                if F._offsets[i]:  # v - 0.0 is v, so skip the pass
                    vals[rows, i, :len(bases)] -= F._offsets[i]
                self.fills[i] = wrote[i] = fill  # a fill is kept once read
        return vals, row_of

    def add(self, F: ObjectiveFamily, x: int, replaced: list, gains: list,
            values: list):
        """Put x in S, and in each T[i] whose gain is positive, in place
        of ``replaced[i]``; rebuild those ``moves[i]``, drop those
        ``fills[i]``, and make those ``base[i]`` evals, each served
        ``values[i]``, the probe's value of the new T[i] (see ``probe``)."""
        self.S.add(x)
        T = self.T
        for i, gain in enumerate(gains):
            if gain > 0:
                T[i] = key = tuple(sorted([y for y in T[i] if y != replaced[i]]
                                          + [x]))
                self.moves[i] = _moves(key, self.k)
                self.fills[i] = None
                self.base[i] = F.value(i, key, values[i])

    def total(self) -> float:
        return sum(self.base) / len(self.base)


def _check_alpha(alpha: float):
    """Raise ValueError unless 0 < alpha < inf (the exchange bar's factor)."""
    if not 0 < alpha < inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def _probe(F: ObjectiveFamily, i: int, x: int, key: tuple, k: int,
           base: float | None, step: float | None = None,
           counted: bool = True) -> tuple:
    """The move ``(replaced, gain)`` of x against the sorted tuple ``key``
    at budget k, with every check before the first eval: ``_move``'s, or
    (None, 0.0) if x is in ``key`` below budget.  If ``counted``
    (``nabla``, ``lambda_gain``), a missing base is evaluated even then,
    and the move is counted by ``_Sets.probe``'s rule, with the bar
    ``step * base`` unless ``step`` is None."""
    if len(key) > k:
        raise InvariantViolation("per-function solution larger than its budget")
    _check_ids((x,), F.ground.n)
    if len(key) < k:
        if x in key:
            if counted and base is None:
                F.value(i, key)
            return None, 0.0
    elif not key:
        raise ValueError("rep requires a non-empty set; use the insertion path")
    elif x in key:
        raise ValueError("candidate already in the set")
    if base is None:
        base = F.value(i, key)
    r, g, _ = _move(F.value, i, *_moves(key, k), x, base)
    if not counted or ((r is None or g > 0)
                       and (step is None or g >= step * base)):
        return r, g
    return None, 0.0


def _key(F: ObjectiveFamily, A: Iterable[int]) -> tuple:
    """The sorted tuple of the distinct ids of A, for the gain primitives.
    Ids that do not sort (None or a string among integers) raise
    ``_check_ids``'s error, not the sort's."""
    A = set(A)
    try:
        return tuple(sorted(A))
    except TypeError:
        _check_ids(A, F.ground.n)
        raise


def marginal(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
             base: float | None = None) -> float:
    """f_i(A + x) - f_i(A); exactly 0 when x is already in A.

    ``base`` lets callers reuse a cached f_i(A) instead of re-evaluating.
    """
    key = _key(F, A)
    # a budget above |A| always takes the insertion path
    return _probe(F, i, x, key, len(key) + 1, base, counted=False)[1]


def rep(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
        base: float | None = None) -> SwapOutcome:
    """Best single swap of x into A: argmax_{y in A} f_i(A + x - y) - f_i(A).

    The gain may be negative.  Ties break toward the lowest replaced id.
    """
    key = _key(F, A)
    # a budget of |A| always takes the swap path
    return SwapOutcome(*_probe(F, i, x, key, len(key), base, counted=False))


def nabla(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
          alpha: float, k: int, base: float | None = None) -> SwapOutcome:
    """Thresholded streaming gain of x against A.

    Below budget the insertion gain counts only if it reaches
    (alpha/k) * f_i(A); at budget the best-swap gain must clear the same
    bar.  Anything below the bar contributes 0.  The returned gain is
    always >= 0; ``replaced`` is set only for an accepted swap.
    """
    _check_alpha(alpha)
    return SwapOutcome(*_probe(F, i, x, _key(F, A), k, base, alpha / k))


def lambda_gain(F: ObjectiveFamily, i: int, x: int, A: Iterable[int],
                k: int, base: float | None = None) -> SwapOutcome:
    """Greedy additive gain of x against A.

    Plain insertion gain below budget; at budget, the best-swap gain clamped
    at 0.  A zero-gain swap is reported with ``replaced`` unset so callers
    treat it as a no-op.
    """
    return SwapOutcome(*_probe(F, i, x, _key(F, A), k, base))


def evaluate_solution(F: ObjectiveFamily, sol: TwoStageSolution) -> float:
    """(1/m) sum_i f_i(T_i), recomputed from scratch.  Raises ValueError,
    before any eval, unless the solution has one set per function of F and
    passes ``TwoStageSolution.check``, and TypeError or ValueError unless
    its summary's ids are F's (``_check_ids``)."""
    if len(sol.per_function) != F.m:
        raise ValueError(f"solution has {len(sol.per_function)} per-function "
                         f"sets, the family has {F.m} functions")
    sol.check()
    _check_ids(sol.summary, F.ground.n)
    return sum(F.value(i, t) for i, t in enumerate(sol.per_function)) / F.m

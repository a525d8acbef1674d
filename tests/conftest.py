from unittest import mock

import numpy as np
import pytest

from twostage.core import GroundSet, ObjectiveFamily


def modular_family(*weight_rows):
    """Family of modular functions from explicit per-element weights."""
    n = len(weight_rows[0])
    ground = GroundSet(n)

    def make(w):
        return lambda ids: float(sum(w[e] for e in ids))

    return ObjectiveFamily(ground, [make(tuple(r)) for r in weight_rows])


@pytest.fixture
def worked_instance():
    """The 3-element two-function instance every hand-trace uses.

    f1 weights (3, 2, 1), f2 weights (1, 2, 3); with ell=2, k=1 the optimum
    is S={0, 2}, T1={0}, T2={2}, value 3.
    """
    return modular_family((3.0, 2.0, 1.0), (1.0, 2.0, 3.0))


def poisoned_family(bad, n=6, poison=3):
    """Two functions on n elements; function 1 evaluates to ``bad`` on every
    set that contains ``poison`` and is modular elsewhere."""
    def clean(ids):
        return float(sum(1.0 + e for e in ids))

    def poisoned(ids):
        return bad if poison in ids else float(len(ids))

    return ObjectiveFamily(GroundSet(n), [clean, poisoned])


def kernel_counted(F):
    """A copy of F whose objective calls are counted: (family, [calls])."""
    calls = [0]

    def counted(f):
        def g(key):
            calls[0] += 1
            return f(key)
        return g

    copy = ObjectiveFamily(F.ground, [counted(f) for f in F._functions])
    calls[0] = 0
    return copy, calls


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def scalar_block(F):
    """A two-step block kernel for F computed set by set from its own
    objectives: ``F._block(i, bases)(xs, out=None)``."""
    def block(i, bases):
        f = F._functions[i]

        def fill(xs, out=None):
            vals = np.array([[f(tuple(sorted(b + (x,)))) for b in bases]
                             for x in xs])
            if out is None:
                return vals
            out[...] = vals
            return out
        return fill
    return block


def edited_kernel(kernel, edit):
    """The two-step block kernel whose fills are ``kernel``'s, each result
    then passed to ``edit(i, bases, xs, vals)``, which may change it in
    place."""
    def block(i, bases):
        fill = kernel(i, bases)

        def edited(xs, out=None):
            vals = fill(xs, out)
            edit(i, bases, xs, vals)
            return vals
        return edited
    return block


def block_spy(F):
    """Record F's block kernel calls: each ``F._block(i, bases)`` as (i,
    bases) in the first list returned, each call of its fill as (i, bases,
    xs) in the second."""
    kernel = F._block
    reductions, fills = [], []

    def block(i, bases):
        reductions.append((i, bases))
        fill = kernel(i, bases)

        def spied(xs, out=None):
            fills.append((i, bases, list(xs)))
            return fill(xs, out)
        return spied
    F._block = block
    return reductions, fills


def float_features(n, classes, seed):
    """Real-valued features in [0, 2); each entry is zero with probability 0.4."""
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(0.0, 2.0, (n, classes))
    vectors[rng.random((n, classes)) < 0.4] = 0.0
    vectors[0] = 1.0  # every class has a member
    return vectors


def recorded_run(mgr, stream):
    """Run the ThresholdManager ``mgr`` over ``stream`` and return one
    record per element, a dict of:

    * ``u``, the element; ``live``, the exponent -> state map once the
      window has moved, and ``after``, the map once the element is done;
    * ``probes``: each probe's ``(state, calls, row)``, its recorded
      ``(i, ids, v)`` calls and whether it read an entry fill's row;
    * ``seen``: the element's probe dicts, one per function, as the
      probes left them;
    * ``builds``: each ``_GroupState.accepted``'s ``(old, new, gains,
      evals)``;
    * ``served``: each ``F.value`` call given a served value outside a
      probe and a build, as ``(i, ids, v, evals, f_calls, probed)``: the
      evals and objective calls it made, and the value that a call of the
      probe dict recorded for the same function and sorted set (None if
      none did).
    """
    from twostage.core import _Sets
    from twostage.streaming import _GroupState

    F, steps, inside, made, reads = mgr.F, [], [0], [0], [0]
    update, process = mgr.update_thresholds, mgr.process
    probe, accepted, value = _Sets.probe, _GroupState.accepted, F.value
    kernel = F._block

    def counted(f):
        def g(key):
            made[0] += 1
            return f(key)
        return g

    def updated(u):
        singles = update(u)
        steps.append({"u": u, "live": dict(mgr.instances), "probes": [],
                      "seen": [], "builds": [], "served": []})
        return singles

    def processed(u):
        process(u)
        steps[-1]["after"] = dict(mgr.instances)

    def block(i, bases):
        fill = kernel(i, bases)

        def read(xs, out=None):
            reads[0] += 1
            return fill(xs, out)
        return read

    def probed(self, F, x, step=None, raws=None, calls=None, seen=None):
        inside[0] += 1
        before = reads[0]
        try:
            return probe(self, F, x, step, raws, calls, seen)
        finally:
            inside[0] -= 1
            steps[-1]["probes"].append((self, calls, reads[0] > before))
            steps[-1]["seen"] = seen

    def built(self, F, x, replaced, gains, values):
        before = F.evals
        inside[0] += 1
        try:
            new = accepted(self, F, x, replaced, gains, values)
        finally:
            inside[0] -= 1
        steps[-1]["builds"].append((self, new, gains, F.evals - before))
        return new

    def served(i, ids, v=None):
        if v is None or inside[0]:
            return value(i, ids, v)
        evals, calls = F.evals, made[0]
        got = value(i, ids, v)
        key = sorted(ids)
        probed = next((w for *_, recorded in steps[-1]["seen"][i].values()
                       for _, set_, w in recorded if sorted(set_) == key),
                      None)
        steps[-1]["served"].append(
            (i, ids, got, F.evals - evals, made[0] - calls, probed))
        return got

    functions = F._functions
    F._functions = [counted(f) for f in functions]
    mgr.update_thresholds, mgr.process, F.value = updated, processed, served
    if kernel is not None:
        F._block = block
    try:
        with mock.patch.object(_Sets, "probe", probed), \
                mock.patch.object(_GroupState, "accepted", built):
            mgr.run(stream)
    finally:
        F._functions, F._block = functions, kernel
        del mgr.update_thresholds, mgr.process, F.value
    return steps


def followers(step):
    """``(l, state, calls, row)`` for each exponent of ``step`` after the
    first of its run, where the run's leader probed the element, with the
    leader's recorded calls and whether it read an entry fill's row."""
    probed = {id(s): (calls, row) for s, calls, row in step["probes"]}
    seen = set()
    for l, state in sorted(step["live"].items()):
        if id(state) in seen and id(state) in probed:
            yield (l, state, *probed[id(state)])
        seen.add(id(state))


def expected_served(step):
    """The served calls ``step`` must show, in order: each follower makes
    its leader's recorded calls again and, if it accepts, the base evals
    of the state that the run's first accepter built, served its values."""
    builds = {id(old): (new, gains) for old, new, gains, _ in step["builds"]}
    want = []
    for l, state, calls, _ in followers(step):
        want += calls
        if step["after"][l] is not state:
            new, gains = builds[id(state)]
            want += [(i, new.T[i], new.base[i])
                     for i, gain in enumerate(gains) if gain > 0]
    return want

"""Outside-in span tracer for the twostage benchmark.

The tracer changes no file of the library.  While it is active it replaces
the public functions the solvers call through (the names each module looks
up at call time) with thin wrappers that record one span per call: a name,
a start, an end and the span that was open when the call began.  Spans are
kept in flat in-memory arrays and written out when the benchmark ends; the
per-layer metrics are computed from them afterwards, so the hot path only
appends four numbers per call.

A few counts that are not durations (accepted exchanges, live threshold
instances, candidates handed to a greedy call) are read at the same call
boundaries through the solvers' public arguments, return values and
attributes.
"""

from __future__ import annotations

import time
from array import array
from collections.abc import Sized
from contextlib import contextmanager

import numpy as np

from twostage import cli, core, distributed, greedy, objectives, streaming

# (owner, attribute, span name).  The owner is the module or class whose
# attribute the caller looks up at call time, so replacing it there is seen
# by every caller of that binding.
TRACED = (
    (core.ObjectiveFamily, "value", "core.value"),
    (core, "rep", "core.rep"),
    (core, "marginal", "core.marginal"),
    (greedy, "lambda_gain", "core.lambda_gain"),
    (streaming, "nabla", "core.nabla"),
    (streaming, "exchange", "streaming.exchange"),
    (streaming.ThresholdManager, "update_thresholds",
     "streaming.update_thresholds"),
    (streaming.ThresholdManager, "run", "streaming.run"),
    (greedy, "replacement_greedy", "greedy.replacement_greedy"),
    (distributed, "replacement_greedy", "greedy.replacement_greedy"),
    (distributed, "partition", "distributed.partition"),
    (distributed, "pseudo_streaming", "distributed.pseudo_streaming"),
    (cli, "replacement_distributed", "distributed.replacement_distributed"),
    (cli, "distributed_fast", "distributed.distributed_fast"),
    (cli, "run_experiment", "cli.run_experiment"),
    (cli, "load_features_csv", "cli.load_features_csv"),
    (cli, "emit_report", "cli.emit_report"),
    (objectives, "make_synthetic", "objectives.make_synthetic"),
    (objectives, "exemplar_family", "objectives.exemplar_family"),
)

# Each per-layer metric: (name, unit, better, what it should move).
LAYER_METRICS = (
    ("core.value.calls", "count", "lower", "solve_s, all workloads; equals evals"),
    ("core.value.self_s", "s", "lower", "solve_s, all workloads"),
    ("core.value.us_per_call", "us", "lower", "solve_s, all workloads (L0 kernel cost)"),
    ("core.rep.calls", "count", "lower", "solve_s on greedy-facility, distributed-exemplar"),
    ("core.rep.self_s", "s", "lower", "solve_s on greedy-facility, distributed-exemplar"),
    ("core.lambda_gain.calls", "count", "lower", "solve_s on greedy-facility, distributed-exemplar"),
    ("core.lambda_gain.self_s", "s", "lower", "solve_s on greedy-facility, distributed-exemplar"),
    ("core.nabla.calls", "count", "lower", "solve_s on stream-coverage"),
    ("core.nabla.self_s", "s", "lower", "solve_s on stream-coverage"),
    ("core.marginal.calls", "count", "lower", "solve_s on stream-coverage"),
    ("core.marginal.self_s", "s", "lower", "solve_s on stream-coverage"),
    ("greedy.calls", "count", "lower", "solve_s on greedy-facility, distributed-exemplar"),
    ("greedy.self_s", "s", "lower", "solve_s on greedy-facility, distributed-exemplar"),
    ("greedy.candidates", "count", "lower", "solve_s on greedy-facility, distributed-exemplar"),
    ("streaming.elements", "count", "lower", "evals, solve_s on stream-coverage"),
    ("streaming.run.self_s", "s", "lower", "solve_s on stream-coverage"),
    ("streaming.exchange.calls", "count", "lower", "evals, solve_s on stream-coverage"),
    ("streaming.exchange.accepted", "count", "higher", "value on stream-coverage"),
    ("streaming.exchange.self_s", "s", "lower", "solve_s on stream-coverage"),
    ("streaming.accept_ratio", "ratio", "higher", "evals, solve_s on stream-coverage"),
    ("streaming.update_thresholds.self_s", "s", "lower", "solve_s on stream-coverage"),
    ("streaming.live_instances.max", "count", "lower", "evals, peak_alloc_mb on stream-coverage"),
    ("streaming.live_instances.mean", "count", "lower", "evals, solve_s on stream-coverage"),
    ("streaming.instances_created", "count", "lower", "evals on stream-coverage"),
    ("streaming.instances_dropped", "count", "lower", "evals on stream-coverage"),
    ("streaming.peak_stored", "count", "lower", "peak_alloc_mb on stream-coverage"),
    ("distributed.partition_s", "s", "lower", "solve_s on distributed-exemplar"),
    ("distributed.workers", "count", "lower", "solve_s on distributed-exemplar"),
    ("distributed.worker_s.max", "s", "lower", "solve_s on distributed-exemplar"),
    ("distributed.worker_s.sum", "s", "lower", "solve_s on distributed-exemplar"),
    ("distributed.worker_evals", "count", "lower", "evals on distributed-exemplar"),
    ("distributed.merge_s", "s", "lower", "solve_s on distributed-exemplar"),
    ("distributed.merge_candidates", "count", "lower", "solve_s on distributed-exemplar"),
    ("distributed.merge_evals", "count", "lower", "evals on distributed-exemplar"),
    ("distributed.replacement.worker_s.sum", "s", "lower", "solve_s on distributed-exemplar (greedy workers)"),
    ("distributed.replacement.merge_s", "s", "lower", "solve_s on distributed-exemplar (merge after greedy workers)"),
    ("distributed.replacement.merge_candidates", "count", "lower", "solve_s on distributed-exemplar"),
    ("objectives.build_s", "s", "lower", "setup_s, all workloads; peak_alloc_mb on distributed-exemplar"),
    ("cli.ingest_s", "s", "lower", "setup_s on distributed-exemplar"),
    ("cli.run_experiment_s", "s", "lower", "solve_s on distributed-exemplar"),
    ("cli.report_s", "s", "lower", "solve_s on distributed-exemplar"),
    ("trace.solve_s", "s", "lower", "traced solve_s; self times plus unaccounted_s sum to it"),
    ("trace.unaccounted_s", "s", "lower", "solve_s; traced time outside every wrapped call"),
    ("trace.overhead_s", "s", "lower", "traced solve_s minus untraced solve_s"),
    ("trace.spans", "count", "lower", "trace.overhead_s"),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.candidates: dict[int, int] = {}   # greedy span -> candidate count
        self.accepted = 0
        self.live_sum = 0
        self.live_max = 0
        self.created = 0
        self.dropped = 0
        self.peak_stored = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a whole phase."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        tracer = self
        if name == "greedy.replacement_greedy":
            def wrapper(F, candidates, *args, **kwargs):
                if not isinstance(candidates, Sized):
                    candidates = list(candidates)
                count = len(set(candidates))
                idx = tracer._open(nid)
                try:
                    return fn(F, candidates, *args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer.candidates[idx] = count
        elif name == "streaming.exchange":
            def wrapper(*args, **kwargs):
                idx = tracer._open(nid)
                try:
                    accepted = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                tracer.accepted += bool(accepted)
                return accepted
        elif name == "streaming.update_thresholds":
            def wrapper(mgr, *args, **kwargs):
                before = set(mgr.instances)
                idx = tracer._open(nid)
                try:
                    return fn(mgr, *args, **kwargs)
                finally:
                    tracer._close(idx)
                    live = len(mgr.instances)
                    tracer.live_sum += live
                    tracer.live_max = max(tracer.live_max, live)
                    tracer.created += len(mgr.instances.keys() - before)
                    tracer.dropped += len(before - mgr.instances.keys())
        elif name == "streaming.run":
            def wrapper(mgr, *args, **kwargs):
                idx = tracer._open(nid)
                try:
                    return fn(mgr, *args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer.peak_stored = max(tracer.peak_stored,
                                             mgr.peak_stored)
        else:
            # The hot path (one span per set evaluation): _open and _close
            # inlined with pre-bound methods to cut the cost of each call.
            starts, ends, stack = self.start, self.end, self._stack
            add_name, add_parent = self.name.append, self.parent.append
            add_start, add_end = starts.append, ends.append
            push, pop, clock = stack.append, stack.pop, time.perf_counter

            def wrapper(*args, **kwargs):
                idx = len(starts)
                add_name(nid)
                add_parent(stack[-1])
                add_end(0.0)
                push(idx)
                add_start(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    pop()
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Swap every traced binding for its wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name in TRACED:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def save(self, path):
        """Write every span (names as a lookup table) to one .npz file."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


class Spans:
    """The recorded spans as arrays, with durations, self times and roots.

    ``factors`` holds one scale per root span, in the order the roots were
    opened; every duration in a root's subtree is multiplied by it.
    """

    def __init__(self, tr: Tracer, factors):
        self.ids = {n: i for i, n in enumerate(tr.names)}
        self.name = np.frombuffer(tr.name, dtype=np.uint16).astype(np.int64)
        self.start = np.frombuffer(tr.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tr.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(tr.parent, dtype=np.int64).copy()
        nested = self.parent >= 0
        root = np.where(nested, self.parent, np.arange(len(self.parent)))
        while not np.array_equal(root[root], root):
            root = root[root]
        self.root = root
        scale = np.zeros(len(root))
        scale[np.flatnonzero(~nested)] = factors
        self.dur = (self.end - self.start) * scale[root]
        # A span's self time is its duration minus its direct children's.
        self.self_t = self.dur - np.bincount(
            self.parent[nested], weights=self.dur[nested],
            minlength=len(self.dur))
        self.in_solve = self.is_named("solve")[root]
        self.in_setup = self.is_named("setup")[root]

    def is_named(self, span_name: str) -> np.ndarray:
        return self.name == self.ids.get(span_name, -1)

    def value_calls_per_solve(self) -> list[int]:
        """core.value calls under each benchmark ``solve`` span, in order."""
        counts = np.bincount(self.root[self.is_named("core.value")],
                             minlength=len(self.name))
        return [int(counts[r]) for r in np.flatnonzero(self.is_named("solve"))]

    def self_time_table(self) -> list[tuple[str, int, float]]:
        """(span name, calls, self seconds) for every name under ``solve``."""
        return [(n, int((self.is_named(n) & self.in_solve).sum()),
                 float(self.self_t[self.is_named(n) & self.in_solve].sum()))
                for n in self.ids]


def layer_metrics(tr: Tracer, spans: Spans, overhead_s: float) -> dict:
    """Per-layer metrics of the traced set-up and solves, from the spans.

    Only spans under a benchmark ``solve`` span count toward solve-side
    metrics and only spans under ``setup`` toward set-up metrics.
    ``overhead_s`` is measured by the caller: the traced minus the untraced
    time of a round.
    """
    name, start, end, parent = spans.name, spans.start, spans.end, spans.parent
    dur, in_solve, in_setup = spans.dur, spans.in_solve, spans.in_setup

    def sel(span_name, where=in_solve):
        return spans.is_named(span_name) & where

    def calls(span_name):
        return int(sel(span_name).sum())

    def self_s(span_name):
        return float(spans.self_t[sel(span_name)].sum())

    def total_s(span_name, where=in_solve):
        return float(dur[sel(span_name, where)].sum())

    value_starts = np.sort(start[sel("core.value")])

    def evals_within(idxs):
        lo = np.searchsorted(value_starts, start[idxs], side="left")
        hi = np.searchsorted(value_starts, end[idxs], side="right")
        return int((hi - lo).sum())

    def candidates(idxs):
        return sum(tr.candidates[int(i)] for i in idxs)

    # Split each distributed solver's children into workers and the merge:
    # replacement_distributed runs one greedy per non-empty machine and then
    # one greedy merge; distributed_fast runs pseudo-streaming workers and
    # then one greedy merge.
    greedy_id = spans.ids.get("greedy.replacement_greedy", -1)
    split = {}
    for solver, key, worker_name in (
            ("distributed.replacement_distributed", "replacement",
             "greedy.replacement_greedy"),
            ("distributed.distributed_fast", "fast",
             "distributed.pseudo_streaming")):
        worker_id = spans.ids.get(worker_name, -1)
        workers, merges = [], []
        for d in np.flatnonzero(sel(solver)):
            kids = np.flatnonzero(parent == d)
            greedy_kids = kids[name[kids] == greedy_id]
            if len(greedy_kids) == 0:
                continue
            merges.append(greedy_kids[-1])
            workers.extend(k for k in kids
                           if name[k] == worker_id and k != greedy_kids[-1])
        split[key] = (np.array(workers, dtype=np.int64),
                      np.array(merges, dtype=np.int64))
    all_workers = np.concatenate([w for w, _ in split.values()])
    all_merges = np.concatenate([m for _, m in split.values()])
    greedy_spans = np.flatnonzero(sel("greedy.replacement_greedy"))

    out = {
        "core.value.calls": calls("core.value"),
        "core.value.self_s": self_s("core.value"),
        "core.rep.calls": calls("core.rep"),
        "core.rep.self_s": self_s("core.rep"),
        "core.lambda_gain.calls": calls("core.lambda_gain"),
        "core.lambda_gain.self_s": self_s("core.lambda_gain"),
        "core.nabla.calls": calls("core.nabla"),
        "core.nabla.self_s": self_s("core.nabla"),
        "core.marginal.calls": calls("core.marginal"),
        "core.marginal.self_s": self_s("core.marginal"),
        "greedy.calls": len(greedy_spans),
        "greedy.self_s": self_s("greedy.replacement_greedy"),
        "greedy.candidates": candidates(greedy_spans),
        "streaming.elements": calls("streaming.update_thresholds"),
        "streaming.run.self_s": self_s("streaming.run"),
        "streaming.exchange.calls": calls("streaming.exchange"),
        "streaming.exchange.accepted": tr.accepted,
        "streaming.exchange.self_s": self_s("streaming.exchange"),
        "streaming.update_thresholds.self_s":
            self_s("streaming.update_thresholds"),
        "streaming.instances_created": tr.created,
        "streaming.instances_dropped": tr.dropped,
        "distributed.partition_s": total_s("distributed.partition"),
        "distributed.workers": len(all_workers),
        "distributed.worker_s.sum": float(dur[all_workers].sum()),
        "distributed.worker_evals": evals_within(all_workers),
        "distributed.merge_s": float(dur[all_merges].sum()),
        "distributed.merge_candidates": candidates(all_merges),
        "distributed.merge_evals": evals_within(all_merges),
        "cli.run_experiment_s": total_s("cli.run_experiment"),
        "cli.report_s": total_s("cli.emit_report"),
        "trace.solve_s": total_s("solve"),
        "trace.unaccounted_s": self_s("solve"),
        "trace.spans": int(in_solve.sum()),
    }
    workers, merges = split["replacement"]
    out["distributed.replacement.worker_s.sum"] = float(dur[workers].sum())
    out["distributed.replacement.merge_s"] = float(dur[merges].sum())
    out["distributed.replacement.merge_candidates"] = candidates(merges)

    exchanges, elements = out["streaming.exchange.calls"], \
        out["streaming.elements"]
    out.update({
        "core.value.us_per_call": 1e6 * out["core.value.self_s"]
        / max(out["core.value.calls"], 1),
        "streaming.accept_ratio": tr.accepted / max(exchanges, 1),
        "streaming.live_instances.max": tr.live_max,
        "streaming.live_instances.mean": tr.live_sum / max(elements, 1),
        "streaming.peak_stored": tr.peak_stored,
        "distributed.worker_s.max":
            float(dur[all_workers].max()) if len(all_workers) else 0.0,
        "objectives.build_s":
            total_s("objectives.make_synthetic", in_setup)
            + total_s("objectives.exemplar_family", in_setup),
        "cli.ingest_s": total_s("cli.load_features_csv", in_setup),
        "trace.overhead_s": overhead_s,
    })
    return {n: out[n] for n, *_ in LAYER_METRICS}

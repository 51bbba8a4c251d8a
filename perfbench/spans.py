"""Per-layer tracing done from outside the library.

``Tracer`` installs wrappers on the names callers actually look up, records
one span per call (name, start, end, parent, run id) plus exact counts at the
same boundaries, and restores every original on ``uninstall``. Nothing in
``fair_experts`` is edited. Each method is wrapped once, at the class that
defines it, so an inherited method (``PerGroupFixedShare.observe`` is
``FixedShare.observe``) is timed once; a wrapper re-entered under its own
span (a ``super()`` call) opens no second span.

A layer's self time is its spans' durations minus the part covered by their
child spans. ``per_layer_metrics`` turns one iteration's spans and counts
into the benchmark's per-layer metrics.

Peak memory is measured in a separate pass (``MemoryTracer``) with
``tracemalloc`` started only inside the three measured calls, so it does not
slow the timed spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import tracemalloc
from collections import Counter

import numpy as np

from fair_experts import adversaries, cli, harness, learners, metrics, types
from fair_experts.protocol import AdaptiveBlock

MB = float(1 << 20)

# Per-layer metrics: name -> unit, in report order.
PER_LAYER = {
    "adversaries.segments_s": "s",
    "adversaries.step_s": "s",
    "adversaries.step_calls": "count",
    "learners.block_s": "s",
    "learners.block_rows": "count",
    "learners.round_s": "s",
    "learners.round_calls": "count",
    "protocol.run_s": "s",
    "protocol.self_s": "s",
    "protocol.peak_mb": "MB",
    "types.append_s": "s",
    "types.fold_s": "s",
    "types.retained_mb": "MB",
    "types.write_jsonl_s": "s",
    "types.write_csv_s": "s",
    "types.bytes_written": "bytes",
    "types.read_jsonl_s": "s",
    "types.rows_read": "count",
    "types.read_peak_mb": "MB",
    "types.traces_identical": "count",
    "experts.audit_s": "s",
    "cli.audit_s": "s",
    "cli.audit_self_s": "s",
    "metrics.report_s": "s",
    "metrics.aggregate_s": "s",
    "metrics.shifting_dp_s": "s",
    "metrics.shifting_dp_cells": "count",
    "metrics.shifting_dp_peak_mb": "MB",
    "harness.self_s": "s",
    "harness.output_bytes": "bytes",
    "harness.report_identical": "count",
    "trace.overhead_s": "s",
    "trace.remainder_s": "s",
}

# Counts that must repeat exactly across iterations of one seed.
EXACT_COUNTS = (
    "adversaries.step_calls",
    "learners.block_rows",
    "learners.round_calls",
    "types.retained_mb",
    "types.bytes_written",
    "types.rows_read",
    "metrics.shifting_dp_cells",
    "harness.output_bytes",
    "harness.report_identical",
    "types.traces_identical",
)

# Self time of these spans, summed, gives the per-layer time metric.
_SELF_TIME = {
    "adversaries.segments_s": ("adversaries.segments",),
    "adversaries.step_s": ("adversaries.step",),
    "learners.block_s": ("learners.run_block",),
    "learners.round_s": ("learners.next_distribution", "learners.observe"),
    "protocol.self_s": ("protocol.run",),
    "types.append_s": ("types.append_block",),
    "types.fold_s": ("types.add_block",),
    "types.write_jsonl_s": ("types.to_jsonl",),
    "types.write_csv_s": ("types.to_csv",),
    "types.read_jsonl_s": ("types.from_jsonl",),
    "experts.audit_s": ("experts.audit_fair_in_isolation",),
    "cli.audit_self_s": ("cli.main",),
    "metrics.report_s": ("metrics.build_report",),
    "metrics.aggregate_s": ("metrics.aggregate_reports",),
    "metrics.shifting_dp_s": ("metrics.best_shifting_comparator",),
    "harness.self_s": ("harness.run_experiment",),
}
# Inclusive time of these spans.
_TOTAL_TIME = {"protocol.run_s": "protocol.run", "cli.audit_s": "cli.main"}
# Call counts of these spans.
_CALLS = {
    "adversaries.step_calls": ("adversaries.step",),
    "learners.round_calls": ("learners.next_distribution", "learners.observe"),
}

_ROOT = "harness.run_experiment"


class Recorder:
    """Spans and counts kept in memory; rows are [name, parent, run, start, end]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        row = [self.name_id(name), self.stack[-1] if self.stack else -1, self.run_id, 0.0, 0.0]
        self.stack.append(len(self.rows))
        self.rows.append(row)
        row[3] = time.perf_counter()
        try:
            yield
        finally:
            row[4] = time.perf_counter()
            self.stack.pop()

    def take(self) -> dict:
        """Move the recorded spans and counts out as arrays, leaving it empty."""
        arr = np.array(self.rows, dtype=np.float64).reshape(-1, 5)
        out = {
            "name": arr[:, 0].astype(np.int32),
            "parent": arr[:, 1].astype(np.int64),
            "run": arr[:, 2].astype(np.int32),
            "start": arr[:, 3],
            "end": arr[:, 4],
            "counts": dict(self.counts),
        }
        self.rows = []
        self.counts = Counter()
        return out


def _timed(rec: Recorder, name: str, fn, after=None):
    # Recorder.span inlined: this wrapper runs once per round on the per-round
    # loop, where a context manager would double the tracing overhead.
    nid = rec.name_id(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack, rows = rec.stack, rec.rows
        if stack and rows[stack[-1]][0] == nid:
            return fn(*args, **kwargs)
        row = [nid, stack[-1] if stack else -1, rec.run_id, 0.0, 0.0]
        stack.append(len(rows))
        rows.append(row)
        row[3] = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            row[4] = clock()
            stack.pop()
        if after is not None:
            after(rec.counts, args, kwargs, out)
        return out

    return wrapper


class _Segments:
    """Proxy for a scenario's segments() generator: times each next/send
    and wraps the step callback of every adaptive block it yields."""

    def __init__(self, rec: Recorder, gen) -> None:
        self._rec = rec
        self._gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        with self._rec.span("adversaries.segments"):
            block = self._gen.send(value)
        if isinstance(block, AdaptiveBlock):
            block.step = _timed(self._rec, "adversaries.step", block.step)
        return block


def _segments_wrapper(rec: Recorder, fn):
    @functools.wraps(fn)
    def segments(self):
        return _Segments(rec, fn(self))

    return segments


def _count_rows(counts, args, kwargs, out):
    counts["learners.block_rows"] += len(args[1])


def _count_bytes(counts, args, kwargs, out):
    counts["types.bytes_written"] += os.path.getsize(args[1])


def _count_rows_read(counts, args, kwargs, out):
    counts["types.rows_read"] += len(out)


def _retained_bytes(trace) -> int:
    arrays = [trace.groups, trace.outcome_codes, trace.expected_loss,
              trace.distributions, trace.losses]
    acc = trace.accumulators
    arrays += [acc.counts, acc.learner_loss, acc.expert_loss]
    return sum(a.nbytes for a in arrays if a is not None)


def _count_retained(counts, args, kwargs, out):
    counts["types.retained_bytes"] += _retained_bytes(out)


def _dp_cells(counts, args, kwargs, out):
    source = args[0]
    K = args[1] if len(args) > 1 else kwargs["K"]
    d = source.d if isinstance(source, types.Trace) else np.shape(source)[1]
    counts["metrics.shifting_dp_cells"] += len(out) * (K + 1) * d


class _Patches:
    """Replaced attributes, restored in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _classes(module, base):
    return [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, base) and obj.__module__ == module.__name__
    ]


class Tracer:
    """Installs the timing wrappers on ``install`` and removes them on
    ``uninstall``; spans go to ``self.recorder``."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._patches = _Patches()

    def install(self) -> None:
        rec, p = self.recorder, self._patches
        # harness and cli import these names into their own namespaces
        p.set(harness, "run", _timed(rec, "protocol.run", harness.run, _count_retained))
        p.set(harness, "build_report", _timed(rec, "metrics.build_report", harness.build_report))
        p.set(harness, "aggregate_reports",
              _timed(rec, "metrics.aggregate_reports", harness.aggregate_reports))
        # shifting_approx_regret looks the DP up as a module global
        p.set(metrics, "best_shifting_comparator",
              _timed(rec, "metrics.best_shifting_comparator",
                     metrics.best_shifting_comparator, _dp_cells))
        p.set(cli, "audit_fair_in_isolation",
              _timed(rec, "experts.audit_fair_in_isolation", cli.audit_fair_in_isolation))
        for cls in _classes(adversaries, adversaries.ScenarioRun):
            if "segments" in cls.__dict__:
                p.set(cls, "segments", _segments_wrapper(rec, cls.__dict__["segments"]))
        for cls in _classes(learners, learners.Learner):
            for attr, after in (("run_block", _count_rows), ("next_distribution", None),
                                ("observe", None)):
                if attr in cls.__dict__:
                    p.set(cls, attr, _timed(rec, f"learners.{attr}", cls.__dict__[attr], after))
        p.set(types.TraceBuilder, "append_block",
              _timed(rec, "types.append_block", types.TraceBuilder.append_block))
        p.set(types.Accumulators, "add_block",
              _timed(rec, "types.add_block", types.Accumulators.add_block))
        p.set(types.Trace, "to_jsonl", _timed(rec, "types.to_jsonl", types.Trace.to_jsonl, _count_bytes))
        p.set(types.Trace, "to_csv", _timed(rec, "types.to_csv", types.Trace.to_csv, _count_bytes))
        from_jsonl = types.Trace.__dict__["from_jsonl"].__func__
        p.set(types.Trace, "from_jsonl",
              classmethod(_timed(rec, "types.from_jsonl", from_jsonl, _count_rows_read)))

    def uninstall(self) -> None:
        self._patches.restore()


class MemoryTracer:
    """tracemalloc peaks inside protocol.run, the shifting DP and the JSONL
    read-back, each started and stopped around its own call."""

    def __init__(self) -> None:
        self.peaks: dict[str, int] = {}
        self._patches = _Patches()

    def _peak(self, metric: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peaks[metric] = max(self.peaks.get(metric, 0), peak)

        return wrapper

    def install(self) -> None:
        p = self._patches
        p.set(harness, "run", self._peak("protocol.peak_mb", harness.run))
        p.set(metrics, "best_shifting_comparator",
              self._peak("metrics.shifting_dp_peak_mb", metrics.best_shifting_comparator))
        from_jsonl = types.Trace.__dict__["from_jsonl"].__func__
        p.set(types.Trace, "from_jsonl",
              classmethod(self._peak("types.read_peak_mb", from_jsonl)))

    def uninstall(self) -> None:
        self._patches.restore()

    def metrics(self) -> dict:
        names = ("protocol.peak_mb", "metrics.shifting_dp_peak_mb", "types.read_peak_mb")
        return {n: self.peaks.get(n, 0) / MB for n in names}


def self_times(spans: dict) -> tuple[np.ndarray, np.ndarray]:
    """Per-span self time and duration."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child, dur


def per_layer_metrics(spans: dict, names: list[str]) -> dict:
    """Per-layer time and count metrics of one traced iteration."""
    selft, dur = self_times(spans)
    ids = spans["name"]
    n = len(names)
    self_by = np.bincount(ids, weights=selft, minlength=n)
    dur_by = np.bincount(ids, weights=dur, minlength=n)
    calls_by = np.bincount(ids, minlength=n)
    index = {name: i for i, name in enumerate(names)}

    def total(arr, span_names):
        return float(sum(arr[index[s]] for s in span_names if s in index))

    out: dict = {}
    for metric, span_names in _SELF_TIME.items():
        out[metric] = total(self_by, span_names)
    for metric, span_name in _TOTAL_TIME.items():
        out[metric] = total(dur_by, (span_name,))
    for metric, span_names in _CALLS.items():
        out[metric] = int(total(calls_by, span_names))
    counts = spans["counts"]
    out["learners.block_rows"] = int(counts.get("learners.block_rows", 0))
    out["types.retained_mb"] = counts.get("types.retained_bytes", 0) / MB
    out["types.bytes_written"] = int(counts.get("types.bytes_written", 0))
    out["types.rows_read"] = int(counts.get("types.rows_read", 0))
    out["metrics.shifting_dp_cells"] = int(counts.get("metrics.shifting_dp_cells", 0))
    return out


def run_root_self_sum(spans: dict, names: list[str]) -> float:
    """Summed self time of every span under the run_experiment root(s)."""
    if _ROOT not in names:
        return 0.0
    selft, _ = self_times(spans)
    parent = spans["parent"]
    # walk every span up to its top-level ancestor, one level per pass
    top = np.arange(len(parent))
    while True:
        up = parent[top]
        nxt = np.where(up >= 0, up, top)
        if np.array_equal(nxt, top):
            break
        top = nxt
    under = spans["name"][top] == names.index(_ROOT)
    return float(selft[under].sum())

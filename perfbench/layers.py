"""Traced runs: spans and counters recorded around each layer's entry points.

The benchmark measures layers from outside.  :class:`LayerProbe` swaps
the public functions of each ``src/repro`` layer for timing wrappers in
the benchmark's own process, and restores them afterwards; the program
itself is not changed and has no tracing switched on.

Spans (name, start, end, parent span, request id) are kept in memory
and written out at the end as a Chrome trace-event file, which Perfetto
and ``chrome://tracing`` open.  The heap and the cache simulator are
called millions of times per VM run, so their wrappers only add up time
and calls instead of keeping a span per call.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

#: Span name prefix -> layer.  A span's layer is the part before the dot.
COMPILE_LAYERS = ("lang", "ir", "analysis", "inlining", "cloning", "opt")
RUNTIME_LAYERS = ("runtime",)

#: Heap methods the interpreter calls for every field, element and
#: allocation; timed as one aggregate.
HEAP_METHODS = (
    "alloc_object",
    "alloc_array",
    "read_field",
    "write_field",
    "read_field_indexed",
    "write_field_indexed",
    "read_element",
    "write_element",
    "read_inline_field",
    "write_inline_field",
)
CACHE_METHODS = ("access", "touch_range")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


class SpanRecorder:
    """In-memory spans; a per-thread stack gives each span its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def call(self, name: str, fn, args, kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, started, ended, parent, None))

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            request: str | None = None) -> int:
        """Record a span measured by the caller (e.g. on another thread)."""
        span_id = self._new_id()
        with self._lock:
            self.spans.append(Span(span_id, name, start, end, parent, request))
        return span_id

    # ------------------------------------------------------------------
    # Reductions.

    def within(self, t0: float, t1: float) -> list[Span]:
        return [s for s in self.spans if s.end > t0 and s.start < t1]

    def total(self, name: str, t0: float, t1: float) -> float:
        return sum(min(s.end, t1) - max(s.start, t0) for s in self.within(t0, t1) if s.name == name)

    def count(self, name: str, t0: float, t1: float) -> int:
        return sum(1 for s in self.within(t0, t1) if s.name == name)

    def self_time(self, name: str, t0: float, t1: float) -> float:
        """Duration of ``name`` spans minus the part their children cover."""
        spans = self.within(t0, t1)
        children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        total = 0.0
        for span in spans:
            if span.name != name:
                continue
            covered = _union_length(
                [(c.start, c.end) for c in children.get(span.id, ())], span.start, span.end
            )
            total += (span.end - span.start) - covered
        return total

    def coverage(self, layers: tuple[str, ...], t0: float, t1: float) -> float:
        """Share of ``[t0, t1]`` covered by spans of the given layers."""
        intervals = [
            (s.start, s.end)
            for s in self.within(t0, t1)
            if s.name.split(".", 1)[0] in layers
        ]
        return _union_length(intervals, t0, t1) / (t1 - t0)

    def write_chrome(self, path, origin: float) -> None:
        """Chrome trace-event JSON: one complete event per span."""
        events = []
        for span in self.spans:
            args = {"id": span.id, "parent": span.parent}
            if span.request is not None:
                args["request"] = span.request
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round((span.end - span.start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1 if span.request is None else 2,
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _union_length(intervals: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Total length of the union of ``intervals`` clipped to ``[t0, t1]``."""
    covered = 0.0
    cursor = t0
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, t1)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class LayerProbe:
    """Installs timing wrappers on each layer's public entry points.

    Use as a context manager; every patched attribute is restored on
    exit.  Functions are patched in the module that *looks them up* at
    call time (``repro.inlining.pipeline`` imports ``analyze`` by name,
    so that is where the wrapper must go).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapper factories ---------------------------------------------

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = recorder.call(name, original, args, kwargs)
            if after is not None:
                after(result)
            return result

        self._patch(owner, attr, wrapper)

    def _aggregate(self, owner, attr: str, key: str) -> None:
        original = getattr(owner, attr)
        totals = self.recorder.totals
        calls = self.recorder.calls
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                totals[key] += clock() - started
                calls[key] += 1

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- the layers ----------------------------------------------------

    def __enter__(self) -> "LayerProbe":
        import repro.ir.builder as builder
        import repro.lang.parser as parser
        import repro.inlining.pipeline as pipeline
        import repro.runtime as runtime_pkg
        import repro.session as session
        from repro.analysis import AnalysisCache
        from repro.inlining.decisions import DecisionEngine
        from repro.runtime.cache import CacheSimulator
        from repro.runtime.heap import Heap

        recorder = self.recorder

        def count_lowered(program) -> None:
            recorder.totals["ir.instrs_lowered"] += sum(
                1 for c in program.callables() for _ in c.instructions()
            )

        self._span(parser, "parse_program", "lang.parse")
        self._span(builder, "lower_program", "ir.lower", after=count_lowered)
        self._span(pipeline, "validate_program", "ir.validate")
        self._span(pipeline, "analyze", "analysis.analyze")
        self._span(session, "_analyze", "analysis.analyze")
        self._span(pipeline, "transform_program", "cloning.transform")
        self._span(pipeline, "inline_methods", "opt.inline_methods")
        self._span(pipeline, "apply_escape_optimization", "opt.escape")
        self._span(pipeline, "eliminate_redundant_loads", "opt.loadcse")
        self._span(pipeline, "eliminate_dead_code", "opt.dce")
        self._span(session, "_optimize", "inlining.optimize")
        self._span(DecisionEngine, "plan", "inlining.plan")
        self._span(runtime_pkg, "run_program", "runtime.run")

        original_get = AnalysisCache.get

        @functools.wraps(original_get)
        def cache_get(cache, *args, **kwargs):
            result = original_get(cache, *args, **kwargs)
            if result is not None:
                recorder.calls["analysis.cache_hits"] += 1
            return result

        self._patch(AnalysisCache, "get", cache_get)
        for method in HEAP_METHODS:
            self._aggregate(Heap, method, "runtime.heap")
        for method in CACHE_METHODS:
            self._aggregate(CacheSimulator, method, "runtime.cache")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


#: Span-timed layer metrics: metric -> span name (inclusive time).
_SPAN_SECONDS = {
    "runtime.run_s": "runtime.run",
    "lang.parse_s": "lang.parse",
    "ir.lower_s": "ir.lower",
    "ir.validate_s": "ir.validate",
    "analysis.analyze_s": "analysis.analyze",
    "inlining.plan_s": "inlining.plan",
    "cloning.transform_s": "cloning.transform",
    "opt.inline_methods_s": "opt.inline_methods",
    "opt.escape_s": "opt.escape",
    "opt.loadcse_s": "opt.loadcse",
    "opt.dce_s": "opt.dce",
}


def timed_layers(recorder: SpanRecorder, t0: float, t1: float) -> dict[str, float]:
    """Per-layer times and call counts inside the timed window ``[t0, t1]``."""
    out = {metric: recorder.total(span, t0, t1) for metric, span in _SPAN_SECONDS.items()}
    out["runtime.heap_s"] = recorder.totals["runtime.heap"]
    out["runtime.heap_calls"] = recorder.calls["runtime.heap"]
    out["runtime.cache_s"] = recorder.totals["runtime.cache"]
    out["runtime.cache_calls"] = recorder.calls["runtime.cache"]
    out["runtime.interp_self_s"] = (
        out["runtime.run_s"] - out["runtime.heap_s"] - out["runtime.cache_s"]
    )
    out["ir.validate_calls"] = recorder.count("ir.validate", t0, t1)
    out["ir.instrs_lowered"] = recorder.totals["ir.instrs_lowered"]
    out["analysis.calls"] = recorder.count("analysis.analyze", t0, t1)
    out["analysis.cache_hits"] = recorder.calls["analysis.cache_hits"]
    out["inlining.pipeline_self_s"] = recorder.self_time("inlining.optimize", t0, t1)
    out["bench.runtime_cover"] = recorder.coverage(RUNTIME_LAYERS, t0, t1)
    out["bench.compile_cover"] = recorder.coverage(COMPILE_LAYERS, t0, t1)
    return out


def report_counts(reports) -> dict[str, float]:
    """Decision and pass counts summed over ``OptimizeReport``s."""
    out = defaultdict(float)
    for report in reports:
        out["analysis.method_contours"] += report.analysis.method_contour_count()
        out["analysis.object_contours"] += report.analysis.object_contour_count()
        out["inlining.accepted"] += len(report.plan.accepted())
        out["inlining.rejected"] += len(report.plan.rejected())
        out["inlining.replans"] += report.replan_rounds - 1
        out["cloning.class_variants"] += report.clone_stats.class_variants
        out["cloning.method_partitions"] += report.clone_stats.method_partitions
        if report.inliner_stats is not None:
            out["opt.calls_inlined"] += report.inliner_stats.calls_inlined
        if report.escape_stats is not None:
            out["opt.scalar_replaced"] += report.escape_stats.scalar_replaced
            out["opt.frame_allocated"] += report.escape_stats.stack_allocated
        if report.cse_stats is not None:
            out["opt.loads_eliminated"] += report.cse_stats.loads_eliminated
        if report.dce_stats is not None:
            out["opt.instrs_removed"] += report.dce_stats.instructions_removed
    return dict(out)


def stats_counts(stats_list) -> dict[str, float]:
    """``ExecutionStats`` counters summed over VM runs."""
    out = defaultdict(float)
    for stats in stats_list:
        out["runtime.instructions"] += stats.instructions
        out["runtime.heap_reads"] += stats.heap_reads
        out["runtime.heap_writes"] += stats.heap_writes
        out["runtime.allocations"] += stats.allocations
        out["runtime.frame_allocations"] += stats.frame_allocations
        out["runtime.cache_misses"] += stats.cache.misses
        out["runtime.dyn_dispatches"] += stats.dynamic_dispatches
    return dict(out)

"""Export span JSONL traces to external profiler formats.

Two targets, both derived from the same span stream
(:mod:`repro.obs.tracer` schema — ``span_begin`` / ``span_end`` /
``event`` records):

- **Chrome trace-event JSON** (``repro export chrome``) — the
  ``{"traceEvents": [...]}`` shape that Perfetto (https://ui.perfetto.dev)
  and ``chrome://tracing`` load directly.  Every paired span becomes one
  ``"X"`` complete event with microsecond timestamps.  Lanes (``tid``)
  are allocated per root span tree: a trace merged from N bench worker
  shards keeps each shard's spans as distinct roots (see
  ``Tracer.merge``), so each worker lands on its own timeline lane
  instead of one interleaved mess.  Point events become ``"i"`` instant
  events on the lane of the innermost open span; ``"M"`` metadata events
  name the process and each lane after its root span.
- **Collapsed stacks** (``repro export flame``) — the
  ``root;child;leaf <self-µs>`` line format consumed by speedscope
  (https://speedscope.app) and Brendan Gregg's ``flamegraph.pl``.  The
  weight of each line is *self* time — the span's inclusive duration
  minus the inclusive durations of its direct children, clamped at zero
  (clock jitter can make children momentarily outweigh the parent) — so
  stacking the lines reconstructs the inclusive profile without double
  counting.  :func:`parse_collapsed` reads the format back; tests use it
  to pin the round-trip.

Both exporters tolerate the streams real traces contain: unpaired
``span_begin`` records (a crashed run) are dropped, ``counters`` records
and malformed lines are skipped, and merged shards — whose span ids were
remapped at merge time — need no special casing because pairing is by
span id, not by nesting order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .summary import read_events

#: Synthetic pid for the single-process trace; Perfetto requires one.
TRACE_PID = 1


def _microseconds(seconds: object) -> int:
    return int(round(float(seconds) * 1e6))


# ----------------------------------------------------------------------
# Span-tree reconstruction (shared by both exporters).


@dataclass(slots=True)
class SpanNode:
    """One paired span recovered from a begin/end event stream."""

    id: int
    name: str
    parent: int | None
    start: float
    duration: float
    meta: dict = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        childsum = sum(child.duration for child in self.children)
        return max(self.duration - childsum, 0.0)


@dataclass(slots=True)
class SpanForest:
    """All paired spans of a trace, linked into root trees."""

    roots: list[SpanNode] = field(default_factory=list)
    by_id: dict[int, SpanNode] = field(default_factory=dict)
    #: Spans carrying a hex ``span_id`` in their meta (the service's
    #: cross-process correlation ids) indexed by that hex id.
    by_hex: dict[str, SpanNode] = field(default_factory=dict)
    unpaired: int = 0


def build_span_forest(events: Iterable[dict]) -> SpanForest:
    """Pair ``span_begin``/``span_end`` records into trees.

    Pairing is by span id — merge-remapped ids are globally unique, so
    shard-interleaved streams reconstruct correctly.  Begins without an
    end (crashed or still-running spans) are counted in ``unpaired`` and
    excluded, as are ends without a begin.

    A second, cross-process stitch pass then runs: a span that would be
    a root but carries a hex ``parent_span`` meta naming another loaded
    span's ``span_id`` meta is reparented under it.  This is how the
    service's per-process lanes (client, daemon accept/dispatch, worker)
    reassemble into one tree per request — local integer parent links
    can't cross a ``Tracer.merge`` (ids are remapped), but meta travels
    verbatim (see :mod:`repro.obs.tracecontext`).
    """
    forest = SpanForest()
    open_spans: dict[int, SpanNode] = {}
    for record in events:
        kind = record.get("ev")
        span_id = record.get("id")
        if not isinstance(span_id, int):
            continue
        if kind == "span_begin":
            node = SpanNode(
                id=span_id,
                name=str(record.get("name", "?")),
                parent=record.get("parent"),
                start=float(record.get("ts", 0.0)),
                duration=0.0,
                meta=record.get("meta") or {},
            )
            open_spans[span_id] = node
        elif kind == "span_end":
            node = open_spans.pop(span_id, None)
            if node is None:
                forest.unpaired += 1
                continue
            node.duration = float(record.get("dur", 0.0))
            forest.by_id[node.id] = node
    forest.unpaired += len(open_spans)
    for node in forest.by_id.values():
        hex_id = node.meta.get("span_id")
        if isinstance(hex_id, str) and hex_id:
            forest.by_hex.setdefault(hex_id, node)
    for node in forest.by_id.values():
        if node.parent is None or node.parent not in forest.by_id:
            hex_parent = node.meta.get("parent_span")
            stitched = (
                forest.by_hex.get(hex_parent)
                if isinstance(hex_parent, str)
                else None
            )
            if stitched is not None and stitched is not node:
                # Refuse a stitch that would create a cycle (malformed
                # meta in a hand-edited trace must not hang the walkers).
                ancestor, cyclic = stitched, False
                while ancestor is not None:
                    if ancestor is node:
                        cyclic = True
                        break
                    ancestor = (
                        forest.by_id.get(ancestor.parent)
                        if ancestor.parent is not None
                        else None
                    )
                if not cyclic:
                    # Rewrite the local link too, so lane resolution
                    # (_lane_of) and flamegraph walks see one tree.
                    node.parent = stitched.id
    for node in forest.by_id.values():
        parent = forest.by_id.get(node.parent) if node.parent is not None else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            forest.roots.append(node)
    for node in forest.by_id.values():
        node.children.sort(key=lambda child: child.start)
    forest.roots.sort(key=lambda root: root.start)
    return forest


def _lane_of(node: SpanNode, forest: SpanForest, lanes: dict[int, int]) -> int:
    """The lane (tid) of a span = the lane of its root."""
    seen: set[int] = set()
    while node.parent is not None and node.parent in forest.by_id:
        if node.id in seen:  # defensive: cyclic parent links in a bad trace
            break
        seen.add(node.id)
        node = forest.by_id[node.parent]
    return lanes.get(node.id, 0)


# ----------------------------------------------------------------------
# Chrome trace-event exporter.


def chrome_trace_events(events: Iterable[dict]) -> list[dict]:
    """Translate a span event stream into Chrome trace-event dicts.

    Returns the ``traceEvents`` list: ``"M"`` metadata events first
    (process name, one thread name per lane), then ``"X"`` complete
    events for every paired span and ``"i"`` instant events for point
    events, in timestamp order.
    """
    events = list(events)
    forest = build_span_forest(events)

    # One lane per root tree, in start order; lane 0 is the first root
    # (the serial pipeline), later roots are merged worker shards.
    lanes = {root.id: lane for lane, root in enumerate(forest.roots)}

    out: list[dict] = [
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro"},
        }
    ]
    for root in forest.roots:
        lane = lanes[root.id]
        out.append(
            {
                "ph": "M",
                "pid": TRACE_PID,
                "tid": lane,
                "name": "thread_name",
                "args": {"name": f"lane {lane}: {root.name}"},
            }
        )

    body: list[dict] = []
    for node in forest.by_id.values():
        record = {
            "ph": "X",
            "pid": TRACE_PID,
            "tid": _lane_of(node, forest, lanes),
            "name": node.name,
            "cat": "span",
            "ts": _microseconds(node.start),
            "dur": _microseconds(node.duration),
        }
        if node.meta:
            record["args"] = dict(node.meta)
        body.append(record)

    # Coalesced requests link to the one shared dispatch span they
    # joined: meta ``link_span`` names the dispatch's hex id.  Chrome
    # flow events ("s" start at the linking span, "f" finish at the
    # dispatch) draw the arrow without pretending a parent/child edge.
    flow_id = 0
    for node in forest.by_id.values():
        link_hex = node.meta.get("link_span")
        if not isinstance(link_hex, str):
            continue
        target = forest.by_hex.get(link_hex)
        if target is None or target is node:
            continue
        flow_id += 1
        common = {"cat": "coalesce", "name": "coalesced", "pid": TRACE_PID, "id": flow_id}
        body.append(
            {
                **common,
                "ph": "s",
                "tid": _lane_of(node, forest, lanes),
                "ts": _microseconds(node.start),
            }
        )
        body.append(
            {
                **common,
                "ph": "f",
                "bp": "e",
                "tid": _lane_of(target, forest, lanes),
                "ts": _microseconds(target.start + target.duration),
            }
        )

    # Instant events land on the lane of the innermost span open at their
    # position in stream order (one tracer's — or one merged shard's —
    # events are contiguous and ordered, so stream order is enough).
    current_lane = 0
    for record in events:
        kind = record.get("ev")
        if kind == "span_begin":
            node = forest.by_id.get(record.get("id"))
            if node is not None:
                current_lane = _lane_of(node, forest, lanes)
        elif kind == "event":
            data = record.get("data") or {}
            body.append(
                {
                    "ph": "i",
                    "pid": TRACE_PID,
                    "tid": current_lane,
                    "name": str(record.get("name", "?")),
                    "cat": "event",
                    "ts": _microseconds(record.get("ts", 0.0)),
                    "s": "t",
                    "args": data if isinstance(data, dict) else {"value": data},
                }
            )
    body.sort(key=lambda ev: ev["ts"])
    out.extend(body)
    return out


def write_chrome_trace(path: str, events: Iterable[dict]) -> int:
    """Write ``{"traceEvents": [...]}`` to ``path``; returns event count."""
    trace_events = chrome_trace_events(events)
    payload = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    return len(trace_events)


# ----------------------------------------------------------------------
# Collapsed-stack flamegraph exporter.


def collapsed_stacks(events: Iterable[dict]) -> dict[tuple[str, ...], int]:
    """``{(root, ..., leaf): self-µs}`` aggregated over all paired spans.

    Identical stacks (a span name recurring under the same path — e.g.
    ``analyze`` once per benchmark) accumulate into one entry, which is
    what flamegraph consumers expect.  Zero-self entries are kept only if
    the whole profile would otherwise be empty.
    """
    forest = build_span_forest(events)
    stacks: dict[tuple[str, ...], int] = {}

    def walk(node: SpanNode, prefix: tuple[str, ...]) -> None:
        path = prefix + (node.name,)
        self_us = _microseconds(node.self_seconds)
        if self_us > 0:
            stacks[path] = stacks.get(path, 0) + self_us
        for child in node.children:
            walk(child, path)

    for root in forest.roots:
        walk(root, ())
    if not stacks and forest.roots:
        # All-zero durations (fake clocks in tests): keep the shape.
        for root in forest.roots:
            stacks[(root.name,)] = stacks.get((root.name,), 0)
    return stacks


def render_collapsed(stacks: dict[tuple[str, ...], int]) -> str:
    """Collapsed-stack text: one ``a;b;c <weight>`` line per stack."""
    lines = [
        ";".join(path) + f" {weight}"
        for path, weight in sorted(stacks.items())
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> dict[tuple[str, ...], int]:
    """Inverse of :func:`render_collapsed` (also reads flamegraph.pl input).

    The weight is the last whitespace-separated token; everything before
    it is the ``;``-joined stack.  Malformed lines are skipped.
    """
    stacks: dict[tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_text, _, weight_text = line.rpartition(" ")
        if not stack_text:
            continue
        try:
            weight = int(weight_text)
        except ValueError:
            continue
        path = tuple(stack_text.split(";"))
        stacks[path] = stacks.get(path, 0) + weight
    return stacks


def write_collapsed(path: str, events: Iterable[dict]) -> int:
    """Write collapsed stacks to ``path``; returns the stack count."""
    stacks = collapsed_stacks(events)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_collapsed(stacks))
    return len(stacks)


# ----------------------------------------------------------------------
# File-level conveniences (CLI entry points).


def _load_many(trace_paths: str | Iterable[str]) -> list[dict]:
    """Concatenated events of one or many trace files.

    Multi-file input exists for cross-process stitching: a client trace
    plus the daemon's ``service.jsonl`` loaded together lets the hex-id
    pass connect the client span to the daemon/worker tree.
    """
    if isinstance(trace_paths, str):
        trace_paths = [trace_paths]
    events: list[dict] = []
    offset = 0
    for path in trace_paths:
        loaded, _ = read_events(path)
        # Each file numbers its spans locally from 1, so concatenating
        # raw streams would collide ids across files (breaking begin/end
        # pairing).  Shift every file's ids past the previous maximum —
        # the same globally-unique-ids move Tracer.merge makes in-process.
        max_id = offset
        for record in loaded:
            span_id = record.get("id")
            if isinstance(span_id, int):
                record["id"] = span_id + offset
                parent = record.get("parent")
                if isinstance(parent, int):
                    record["parent"] = parent + offset
                if record["id"] > max_id:
                    max_id = record["id"]
        offset = max_id
        events.extend(loaded)
    return events


def export_chrome_file(trace_path: str | Iterable[str], out_path: str) -> int:
    return write_chrome_trace(out_path, _load_many(trace_path))


def export_collapsed_file(trace_path: str | Iterable[str], out_path: str) -> int:
    return write_collapsed(out_path, _load_many(trace_path))

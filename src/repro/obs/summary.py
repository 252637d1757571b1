"""Read a JSONL trace back and summarize it.

This is the consumer side of :mod:`repro.obs.tracer`: ``repro trace
FILE`` parses the event stream and renders a per-phase wall-time table,
the top counters, and the inlining decision audit.  The parser is
deliberately tolerant — unknown event kinds and malformed lines are
skipped, so traces stay readable across schema additions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Iterable


@dataclass(slots=True)
class PhaseStat:
    """Aggregated timings of one span name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass(slots=True)
class TraceSummary:
    """Everything ``repro trace`` reports about one JSONL trace."""

    phases: dict[str, PhaseStat] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    decisions: list[dict] = field(default_factory=list)
    #: Intermediate per-round verdicts (``decision.round`` events), tagged
    #: with ``round`` (replan round) and ``nested_round``.
    round_decisions: list[dict] = field(default_factory=list)
    #: One entry per ``run.stats`` event — the VM counter snapshot of each
    #: traced run, including the float ratios (``cache_miss_rate``) that
    #: the integer counter table cannot carry.
    run_stats: list[dict] = field(default_factory=list)
    #: ``run.locality`` / ``run.heatmap`` payloads (locality attribution).
    localities: list[dict] = field(default_factory=list)
    heatmaps: list[dict] = field(default_factory=list)
    events: int = 0
    malformed_lines: int = 0
    #: Total time of top-level spans (parent is null) — the denominator
    #: for the share column.
    root_seconds: float = 0.0

    def accepted_decisions(self) -> list[dict]:
        return [d for d in self.decisions if d.get("accepted")]

    def rejected_decisions(self) -> list[dict]:
        return [d for d in self.decisions if not d.get("accepted")]

    def merge(self, other: "TraceSummary") -> "TraceSummary":
        """Fold another summary into this one (for per-worker trace files).

        Phase occurrences/durations, root time, event and malformed-line
        counts are summed; counters are summed too, which is correct for
        the monotonic totals each worker reports independently.
        """
        for name, stat in other.phases.items():
            mine = self.phases.setdefault(name, PhaseStat(name))
            mine.count += stat.count
            mine.total_seconds += stat.total_seconds
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.decisions.extend(other.decisions)
        self.round_decisions.extend(other.round_decisions)
        self.run_stats.extend(other.run_stats)
        self.localities.extend(other.localities)
        self.heatmaps.extend(other.heatmaps)
        self.events += other.events
        self.malformed_lines += other.malformed_lines
        self.root_seconds += other.root_seconds
        return self


def read_events(path: str) -> tuple[list[dict], int]:
    """Parse a JSONL trace file; returns (events, number of malformed lines)."""
    events: list[dict] = []
    malformed = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if isinstance(record, dict):
                events.append(record)
            else:
                malformed += 1
    return events, malformed


def summarize_events(events: list[dict], malformed: int = 0) -> TraceSummary:
    summary = TraceSummary(malformed_lines=malformed)
    roots: set[int] = set()
    for record in events:
        kind = record.get("ev")
        if kind == "span_begin":
            if record.get("parent") is None and isinstance(record.get("id"), int):
                roots.add(record["id"])
        elif kind == "span_end":
            name = record.get("name", "?")
            duration = float(record.get("dur", 0.0))
            stat = summary.phases.setdefault(name, PhaseStat(name))
            stat.count += 1
            stat.total_seconds += duration
            if record.get("id") in roots:
                summary.root_seconds += duration
        elif kind == "counters":
            # Final totals win over any intermediate snapshot.
            for name, value in record.get("counters", {}).items():
                summary.counters[name] = value
        elif kind == "event":
            summary.events += 1
            if record.get("name") == "decision":
                summary.decisions.append(record.get("data", {}))
            elif record.get("name") == "decision.round":
                summary.round_decisions.append(record.get("data", {}))
            elif record.get("name") == "run.stats":
                summary.run_stats.append(record.get("data", {}))
            elif record.get("name") == "run.locality":
                summary.localities.append(record.get("data", {}))
            elif record.get("name") == "run.heatmap":
                summary.heatmaps.append(record.get("data", {}))
    if not summary.root_seconds and summary.phases:
        summary.root_seconds = max(s.total_seconds for s in summary.phases.values())
    return summary


def summarize_file(path: str) -> TraceSummary:
    return summarize_events(*read_events(path))


def summarize_files(paths: Iterable[str]) -> TraceSummary:
    """Merged summary of several trace files (e.g. one per bench worker)."""
    merged = TraceSummary()
    for path in paths:
        merged.merge(summarize_file(path))
    return merged


#: Columns of the multi-run compact table, in display order.
_RUN_TABLE_COLUMNS = (
    "instructions",
    "heap_reads",
    "allocations",
    "cache_misses",
    "cache_miss_rate",
    "cycles",
)


def _format_stat(value: object) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, int):
        return str(value)
    return str(value)


def _render_run_stats(run_stats: list[dict]) -> list[str]:
    """Render ``run.stats`` payloads.

    A single traced run gets the full key/value block (the only place
    float ratios like ``cache_miss_rate`` appear — the counters channel is
    integer-only).  Several runs in one trace (e.g. a bench matrix)
    collapse into a compact comparison table.
    """
    lines: list[str] = []
    if len(run_stats) == 1:
        lines.append("runtime stats:")
        for key, value in run_stats[0].items():
            lines.append(f"  {key:32s} {_format_stat(value):>14s}")
        return lines
    lines.append(f"runtime stats ({len(run_stats)} runs):")
    header = f"  {'run':>4s}"
    for column in _RUN_TABLE_COLUMNS:
        header += f" {column:>15s}"
    lines.append(header)
    for i, stats in enumerate(run_stats):
        row = f"  {i:>4d}"
        for column in _RUN_TABLE_COLUMNS:
            row += f" {_format_stat(stats.get(column, '-')):>15s}"
        lines.append(row)
    return lines


def _render_locality_brief(summary: TraceSummary, top_labels: int = 8) -> list[str]:
    """A short locality digest: top miss labels aggregated across runs.

    The full per-bucket heatmap and the two-trace diff live in
    ``repro heatmap``; this section just proves attribution data is in
    the trace and names the worst offenders.
    """
    misses: dict[tuple, dict] = {}
    truncated = 0
    for payload in summary.localities:
        truncated += int(payload.get("truncated", 0))
        for entry in payload.get("labels", []):
            key = (
                entry.get("kind"),
                entry.get("class"),
                entry.get("field"),
                entry.get("site"),
            )
            slot = misses.setdefault(key, {"misses": 0, "accesses": 0})
            slot["misses"] += int(entry.get("misses", 0))
            slot["accesses"] += int(entry.get("accesses", 0))
    lines = [f"locality: {len(misses)} labels across {len(summary.localities)} run(s)"]
    ranked = sorted(misses.items(), key=lambda kv: (-kv[1]["misses"], str(kv[0])))
    for (kind, cls, fld, site), agg in ranked[:top_labels]:
        name = f"{cls}.{fld}" if fld else (cls or kind)
        site_text = f" @ {site}" if site else ""
        lines.append(
            f"  {name:32s} {agg['misses']:>10d} misses "
            f"/ {agg['accesses']:>10d} accesses [{kind}]{site_text}"
        )
    if len(ranked) > top_labels:
        lines.append(f"  ... and {len(ranked) - top_labels} more labels")
    if truncated:
        lines.append(f"  ({truncated} label(s) truncated at trace time)")
    if summary.heatmaps:
        total_misses = sum(int(h.get("total_misses", 0)) for h in summary.heatmaps)
        total_buckets = sum(int(h.get("total_buckets", 0)) for h in summary.heatmaps)
        lines.append(
            f"  heatmap: {total_misses} misses over {total_buckets} address "
            f"bucket(s) — run `repro heatmap <trace>` for the address-space view"
        )
    return lines


def render_summary(summary: TraceSummary, top_counters: int = 20) -> str:
    """Human-readable report: phase table, counters, decision audit."""
    lines: list[str] = []
    total = summary.root_seconds or 1e-12

    lines.append(f"{'phase':32s} {'count':>6s} {'total ms':>10s} {'mean ms':>10s} {'share':>7s}")
    ordered = sorted(
        summary.phases.values(), key=lambda s: s.total_seconds, reverse=True
    )
    for stat in ordered:
        lines.append(
            f"{stat.name:32s} {stat.count:>6d} {stat.total_seconds * 1e3:>10.2f} "
            f"{stat.mean_seconds * 1e3:>10.3f} {stat.total_seconds / total:>6.1%}"
        )
    if not ordered:
        lines.append("(no spans recorded)")

    if summary.counters:
        lines.append("")
        lines.append(f"{'counter':44s} {'value':>12s}")
        by_value = sorted(summary.counters.items(), key=lambda kv: -kv[1])
        for name, value in by_value[:top_counters]:
            lines.append(f"{name:44s} {value:>12d}")
        if len(by_value) > top_counters:
            lines.append(f"... and {len(by_value) - top_counters} more counters")

    if summary.run_stats:
        lines.append("")
        lines.extend(_render_run_stats(summary.run_stats))

    if summary.localities:
        lines.append("")
        lines.extend(_render_locality_brief(summary))

    if summary.decisions:
        accepted = summary.accepted_decisions()
        rejected = summary.rejected_decisions()
        lines.append("")
        lines.append(
            f"decisions: {len(accepted)} accepted, {len(rejected)} rejected"
        )
        for decision in accepted:
            lines.append(f"  ACCEPT {decision.get('candidate', '?')}")
        for decision in rejected:
            lines.append(
                f"  reject {decision.get('candidate', '?'):28s} "
                f"[{decision.get('stage', '?')}] {decision.get('reason', '')}"
            )

    # Round-by-round audit of multi-round runs (replanning / nesting).
    by_round: dict[tuple[int, int], list[dict]] = {}
    for decision in summary.round_decisions:
        key = (decision.get("nested_round", 1), decision.get("round", 1))
        by_round.setdefault(key, []).append(decision)
    if len(by_round) > 1:
        lines.append("")
        lines.append("intermediate verdicts by round:")
        for (nested, replan), batch in sorted(by_round.items()):
            accepted = sum(1 for d in batch if d.get("accepted"))
            lines.append(
                f"  nested {nested} replan {replan}: "
                f"{accepted} accepted, {len(batch) - accepted} rejected"
            )

    if summary.malformed_lines:
        lines.append("")
        lines.append(f"warning: skipped {summary.malformed_lines} malformed line(s)")
    return "\n".join(lines)


def render_file(path: str, top_counters: int = 20) -> str:
    return render_summary(summarize_file(path), top_counters)

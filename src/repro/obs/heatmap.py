"""Locality reports: address-space heatmaps and per-field miss diffs.

This is the consumer side of the cache simulator's attribution mode
(:class:`repro.runtime.cache.LocalityStats`).  A traced run with
``attribute_locality=True`` emits bounded ``run.locality`` and
``run.heatmap`` events; this module aggregates them back into a
:class:`LocalityReport` and renders:

* an ASCII address-space heatmap (one row per address bucket, bar length
  proportional to misses) plus a per-``(class, field)`` miss table —
  ``repro heatmap TRACE``;
* a side-by-side locality diff of two traces that names the fields whose
  misses a layout change (e.g. inline allocation) eliminated —
  ``repro heatmap BEFORE AFTER``.

Labels collapse to display names before comparison (``Complex.re``,
``Complex[]``, ``new Complex``) so a field access through a uniform
object and the same field through an inline-array view line up in the
diff even though their raw ``(kind, class, field, site)`` labels differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .summary import read_events

#: Shades used for the heatmap bar, light to dark.
_BAR_CHAR = "#"


@dataclass(slots=True)
class LocalityReport:
    """Aggregated locality data from one trace (possibly several runs)."""

    #: Aggregated label entries: display name -> {kind, class, field,
    #: sites, reads, writes, misses, accesses}.
    labels: dict[str, dict] = field(default_factory=dict)
    #: bucket index -> {"base": int, "misses": int, "accesses": int}.
    buckets: dict[int, dict] = field(default_factory=dict)
    bucket_bytes: int = 0
    total_misses: int = 0
    total_accesses: int = 0
    #: Labels/buckets dropped at trace time by the top-K bound.
    truncated_labels: int = 0
    truncated_buckets: int = 0
    #: Number of ``run.locality`` events folded in.
    runs: int = 0

    @property
    def has_data(self) -> bool:
        return self.runs > 0

    def misses_of(self, name: str) -> int:
        entry = self.labels.get(name)
        return entry["misses"] if entry else 0


def label_display_name(kind: str, cls: str | None, fld: str | None) -> str:
    """Collapse a raw attribution label to a layout-independent name.

    Element accesses become ``cls[]``, allocation touches ``new cls``,
    field accesses ``cls.fld`` — whether the field lives in a standalone
    object (``kind == "field"``) or an inline array (``"inline_field"``).
    Clone-variant suffixes (``Complex@elem1``) are stripped so a field
    read through an inline-array view lines up with the same field of
    the uniform layout in before/after diffs.
    """
    cls = cls or "?"
    if "@" in cls:
        base, _, rest = cls.partition("@")
        cls = base + ("[]" if rest.endswith("[]") else "")
    if kind == "element":
        return f"{cls}[]"
    if kind == "alloc":
        return f"new {cls}"
    if fld:
        return f"{cls}.{fld}"
    return cls


def collect_locality(events: list[dict]) -> LocalityReport:
    """Fold all ``run.locality`` / ``run.heatmap`` events into one report."""
    report = LocalityReport()
    for record in events:
        if record.get("ev") != "event":
            continue
        name = record.get("name")
        data = record.get("data", {})
        if name == "run.locality":
            report.runs += 1
            report.truncated_labels += int(data.get("truncated", 0))
            for entry in data.get("labels", []):
                display = label_display_name(
                    entry.get("kind", "other"),
                    entry.get("class"),
                    entry.get("field"),
                )
                slot = report.labels.setdefault(
                    display,
                    {
                        "kind": entry.get("kind", "other"),
                        "class": entry.get("class"),
                        "field": entry.get("field"),
                        "sites": set(),
                        "reads": 0,
                        "writes": 0,
                        "misses": 0,
                        "accesses": 0,
                    },
                )
                if entry.get("site"):
                    slot["sites"].add(entry["site"])
                slot["reads"] += int(entry.get("reads", 0))
                slot["writes"] += int(entry.get("writes", 0))
                slot["misses"] += int(entry.get("misses", 0))
                slot["accesses"] += int(entry.get("accesses", 0))
        elif name == "run.heatmap":
            report.bucket_bytes = int(data.get("bucket_bytes", 0)) or report.bucket_bytes
            report.total_misses += int(data.get("total_misses", 0))
            report.total_accesses += int(data.get("total_accesses", 0))
            report.truncated_buckets += int(data.get("truncated", 0))
            for bucket in data.get("buckets", []):
                index = int(bucket.get("index", 0))
                slot = report.buckets.setdefault(
                    index, {"base": int(bucket.get("base", 0)), "misses": 0, "accesses": 0}
                )
                slot["misses"] += int(bucket.get("misses", 0))
                slot["accesses"] += int(bucket.get("accesses", 0))
    return report


def locality_from_file(path: str) -> LocalityReport:
    events, _malformed = read_events(path)
    return collect_locality(events)


def report_from_stats(locality) -> LocalityReport:
    """Build a report straight from a live :class:`LocalityStats`.

    Used by in-process callers (``repro run --locality``) that have the
    stats object in hand and need no JSONL round-trip.  Passes
    ``top_k=None``-equivalent bounds by asking for everything.
    """
    label_summary = locality.label_summary(top_k=len(locality.by_label) or 1)
    heatmap_summary = locality.heatmap_summary(top_k=len(locality.bucket_misses) or 1)
    events = [
        {"ev": "event", "name": "run.locality", "data": label_summary},
        {"ev": "event", "name": "run.heatmap", "data": heatmap_summary},
    ]
    return collect_locality(events)


def misses_by_field(report: LocalityReport) -> dict[str, int]:
    """Display name -> miss count, restricted to field-kind labels."""
    return {
        name: entry["misses"]
        for name, entry in report.labels.items()
        if entry["kind"] in ("field", "inline_field")
    }


def _bar(value: int, peak: int, width: int) -> str:
    if peak <= 0 or value <= 0:
        return ""
    length = max(1, round(value / peak * width))
    return _BAR_CHAR * min(length, width)


def render_heatmap(report: LocalityReport, top: int = 20, width: int = 40) -> str:
    """ASCII address-space heatmap plus the per-label miss table."""
    lines: list[str] = []
    if not report.has_data:
        return (
            "no locality data in trace "
            "(run with --locality / attribute_locality=True)"
        )

    lines.append(
        f"address-space heatmap: {report.total_misses} misses / "
        f"{report.total_accesses} accesses, bucket = {report.bucket_bytes} bytes"
    )
    ordered = sorted(report.buckets.items())
    peak = max((b["misses"] for _, b in ordered), default=0)
    lines.append(f"{'bucket base':>14s} {'misses':>8s} {'accesses':>9s}")
    for _index, bucket in ordered:
        lines.append(
            f"{bucket['base']:>#14x} {bucket['misses']:>8d} {bucket['accesses']:>9d} "
            f"{_bar(bucket['misses'], peak, width)}"
        )
    if report.truncated_buckets:
        lines.append(f"({report.truncated_buckets} bucket(s) truncated at trace time)")

    lines.append("")
    lines.append(f"{'label':32s} {'kind':>12s} {'misses':>8s} {'accesses':>9s} {'sites'}")
    ranked = sorted(
        report.labels.items(), key=lambda kv: (-kv[1]["misses"], -kv[1]["accesses"], kv[0])
    )
    for name, entry in ranked[:top]:
        sites = ", ".join(sorted(entry["sites"])) or "-"
        lines.append(
            f"{name:32s} {entry['kind']:>12s} {entry['misses']:>8d} "
            f"{entry['accesses']:>9d} {sites}"
        )
    if len(ranked) > top:
        lines.append(f"... and {len(ranked) - top} more labels")
    if report.truncated_labels:
        lines.append(f"({report.truncated_labels} label(s) truncated at trace time)")
    return "\n".join(lines)


def render_locality_diff(
    before: LocalityReport,
    after: LocalityReport,
    top: int = 20,
    names: tuple[str, str] = ("before", "after"),
) -> str:
    """Side-by-side per-label miss comparison of two traces.

    Rows sort by miss reduction, so the fields whose misses the second
    build (e.g. inline allocation) eliminated lead the table.  A summary
    line names every field-kind label whose misses dropped.
    """
    if not before.has_data or not after.has_data:
        missing = names[0] if not before.has_data else names[1]
        return f"no locality data in {missing} trace (run with --locality)"

    lines: list[str] = []
    lines.append(
        f"locality diff: {names[0]} {before.total_misses} misses -> "
        f"{names[1]} {after.total_misses} misses "
        f"(delta {after.total_misses - before.total_misses:+d})"
    )
    lines.append("")
    lines.append(
        f"{'label':32s} {names[0][:14]:>14s} {names[1][:14]:>14s} {'delta':>10s}"
    )
    all_names = set(before.labels) | set(after.labels)
    rows = []
    for name in all_names:
        b = before.misses_of(name)
        a = after.misses_of(name)
        rows.append((name, b, a, a - b))
    rows.sort(key=lambda r: (r[3], -r[1], r[0]))
    for name, b, a, delta in rows[:top]:
        lines.append(f"{name:32s} {b:>14d} {a:>14d} {delta:>+10d}")
    if len(rows) > top:
        lines.append(f"... and {len(rows) - top} more labels")

    improved = [
        (name, b, a)
        for name, b, a, delta in rows
        if delta < 0
        and (
            before.labels.get(name, {}).get("kind") in ("field", "inline_field")
            or after.labels.get(name, {}).get("kind") in ("field", "inline_field")
        )
    ]
    lines.append("")
    if improved:
        lines.append(f"fields with fewer misses in {names[1]}:")
        for name, b, a in improved:
            drop = "eliminated" if a == 0 else f"{b} -> {a}"
            lines.append(f"  {name}: {drop}")
    else:
        lines.append(f"no field saw fewer misses in {names[1]}")
    return "\n".join(lines)

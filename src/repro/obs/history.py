"""The performance-history ledger and the repo's one perf gate.

One-shot snapshots cannot carry a throughput claim: a single sample per
phase says nothing about run-to-run noise.  This module keeps a durable,
append-only record of every measured run plus a distribution-aware
verdict:

- **Ledger** — ``PERF_HISTORY.jsonl`` at the repo root, one JSON object
  per ``repro bench`` / ``repro perf record`` run.  An entry holds
  per-(benchmark, build) simulated cycles, per-phase wall-time samples
  (one per ``--repeat``), locality summaries, and environment metadata
  (git revision, python version, hostname, ``--jobs``), keyed by a
  content hash of the measurement configuration so only comparable runs
  are ever pooled.
- **Check** — ``repro bench --check`` estimates each phase's noise from
  the ledger's recent window (median + MAD, the robust estimators) and
  issues a pass/regressed/improved verdict per (benchmark, build,
  phase), quoting the measured distribution.  A phase regresses only
  when it exceeds both the history median plus the regression margin
  and the absolute ``NOISE_FLOOR_SECONDS``.  Anything the newest
  comparable entry holds but the measured run lacks (a benchmark, build
  or phase) fails as drift; ``repro perf record`` re-arms the gate after
  an intended rename.  Phases with fewer than ``MIN_HISTORY_SAMPLES``
  pooled samples pass ungated.  Simulated cycles are deterministic, so
  they gate by exact equality against the newest comparable entry; an
  intended change re-records them with ``repro perf record --note``.
- **Reports** — ``repro perf list`` / ``diff REV1 REV2`` /
  ``trend METRIC``: the ledger rendered as tables, a jitdiff-style
  base-vs-diff comparison between two recorded revisions, and ASCII
  sparklines of any metric across the ledger.

The ledger is plain JSONL: unknown keys and malformed lines are
skipped on read, so the schema can grow additively (same contract as
the trace format, docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
import time
from dataclasses import dataclass

from .summary import read_events

#: Default ledger location (repo root).
DEFAULT_HISTORY_PATH = "PERF_HISTORY.jsonl"

#: Ledger schema version, bumped on incompatible changes.
LEDGER_VERSION = 1

#: How many recent comparable entries the check pools noise from.
RECENT_WINDOW = 20

#: Minimum pooled wall-time samples before the statistical verdict is
#: trusted; below this a phase passes ungated as ``no-history``.
MIN_HISTORY_SAMPLES = 3

#: MAD -> sigma for normally distributed noise.
MAD_SIGMA = 1.4826

#: Sigma multiplier of the regression margin.
SIGMA_K = 4.0

#: Relative slack: a phase must also move by this fraction of the
#: history median before it can flag (absorbs drift the MAD understates
#: on very stable histories).
REL_SLACK = 0.25

#: Absolute slack in seconds: sub-5ms wiggles never flag.
ABS_SLACK = 0.005

#: Absolute noise floor: a phase measured below this never regresses,
#: however small its history.  Absorbs the scheduler jitter of
#: millisecond phases under ``--jobs N``.
NOISE_FLOOR_SECONDS = 0.050


# ----------------------------------------------------------------------
# Robust statistics.


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of empty sample set")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: list[float]) -> float:
    """Median absolute deviation (robust spread; 0.0 for n <= 1)."""
    if len(values) <= 1:
        return 0.0
    center = median(values)
    return median([abs(v - center) for v in values])


def regression_margin(history: list[float]) -> float:
    """How far a measured median may sit above the history median.

    ``max(K * sigma, REL_SLACK * median, ABS_SLACK)`` — the MAD-derived
    sigma scales with real noise, the relative slack absorbs drift on
    suspiciously quiet histories, and the absolute slack keeps
    microsecond phases from ever flagging on timer jitter.
    """
    center = median(history)
    sigma = MAD_SIGMA * mad(history)
    return max(SIGMA_K * sigma, REL_SLACK * center, ABS_SLACK)


# ----------------------------------------------------------------------
# Entries: construction, hashing, persistence.


def config_key(config: dict) -> str:
    """Content hash of the measurement configuration.

    Hashes the canonical JSON of ``config`` (benchmark set, builds,
    phase list, suite name — everything that decides *what* was
    measured, not *how fast* it ran), so entries pool only with entries
    that measured the same thing.  ``--jobs`` is deliberately not part
    of the key: it lives in the environment metadata and the check
    filters on it separately, because parallel wall times are not
    comparable to serial ones while every figure-visible quantity is.
    """
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def git_revision(cwd: str | None = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def environment(jobs: int = 1) -> dict:
    """The run's environment metadata (recorded, never hashed)."""
    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "hostname": socket.gethostname(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "jobs": jobs,
    }


def make_entry(
    benchmarks: dict,
    config: dict,
    env: dict,
    repeat: int = 1,
    note: str | None = None,
) -> dict:
    """Assemble one ledger entry (see the module docstring for fields)."""
    entry = {
        "v": LEDGER_VERSION,
        "at": time.time(),
        "config_key": config_key(config),
        "config": config,
        "repeat": repeat,
        "env": env,
        "benchmarks": benchmarks,
    }
    if note:
        entry["note"] = note
    return entry


def append_entry(path: str, entry: dict) -> str:
    """Append one entry to the ledger (creates the file if missing)."""
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    return path


def load_history(path: str) -> list[dict]:
    """All well-formed entries, oldest first; missing file reads empty."""
    if not os.path.exists(path):
        return []
    records, _malformed = read_events(path)
    return [r for r in records if isinstance(r.get("benchmarks"), dict)]


def comparable_entries(
    entries: list[dict], key: str, jobs: int | None = None
) -> list[dict]:
    """Entries whose config hash (and, if given, ``--jobs`` mode) match."""
    picked = [e for e in entries if e.get("config_key") == key]
    if jobs is not None:
        picked = [e for e in picked if e.get("env", {}).get("jobs") == jobs]
    return picked


# ----------------------------------------------------------------------
# The statistical check.


@dataclass(slots=True)
class Verdict:
    """One (benchmark, build, metric) comparison against history.

    A ``missing`` verdict names something the newest comparable entry
    holds but the measured run lacks; its ``build`` and ``metric`` are
    empty when a whole benchmark (or build) is missing.
    """

    benchmark: str
    build: str
    metric: str  # phase name, "cycles", or "" for a missing build/benchmark
    #: "pass" | "regressed" | "improved" | "no-history" | "missing", and
    #: "changed" for cycles that differ from the newest comparable entry.
    verdict: str
    measured: float = 0.0
    measured_n: int = 0
    history_median: float | None = None
    history_mad: float | None = None
    history_n: int = 0
    margin: float | None = None

    @property
    def failed(self) -> bool:
        return self.verdict in ("regressed", "missing", "changed")

    def describe(self) -> str:
        """One line quoting the measured value against the distribution."""
        where = "/".join(p for p in (self.benchmark, self.build, self.metric) if p)
        if self.verdict == "missing":
            kind = "phase" if self.metric else "build" if self.build else "benchmark"
            return (
                f"{where}: {kind} missing from the measured run — renamed or "
                "removed? (run `repro perf record` to re-arm the gate if intended)"
            )
        if self.metric == "cycles":
            text = f"{where}: {self.verdict} — {self.measured:.0f} cycles"
            if self.history_median is None:
                return f"{text}, no comparable history"
            if self.verdict != "changed":
                return text
            return (
                f"{text}, newest comparable entry {self.history_median:.0f} "
                f"({self.measured - self.history_median:+.0f}); simulated cycles are "
                "deterministic: if intended, re-record them with `repro perf record --note`"
            )
        measured = f"{self.measured * 1e3:.2f}ms (median of {self.measured_n})"
        if self.history_n == 0 or self.history_median is None:
            return f"{where}: {self.verdict} — {measured}, no comparable history"
        return (
            f"{where}: {self.verdict} — {measured} vs history "
            f"{self.history_median * 1e3:.2f}ms ±{(self.history_mad or 0.0) * 1e3:.2f}ms MAD "
            f"(n={self.history_n}, margin {self.margin * 1e3:.2f}ms)"
        )


def _pooled_phase_samples(
    history: list[dict], benchmark: str, build: str, phase: str
) -> list[float]:
    samples: list[float] = []
    for entry in history:
        build_data = entry.get("benchmarks", {}).get(benchmark, {}).get(build, {})
        for value in build_data.get("phases", {}).get(phase, []):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                samples.append(float(value))
    return samples


def _entry_cycles(entry: dict, benchmark: str, build: str) -> list[float]:
    build_data = entry.get("benchmarks", {}).get(benchmark, {}).get(build, {})
    return [
        float(value)
        for value in build_data.get("cycles", [])
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    ]


def _missing_verdicts(entry: dict, newest: dict) -> list[Verdict]:
    """Drift: every benchmark, build or phase of ``newest`` that the
    measured ``entry`` lacks.  Without this, a renamed span would simply
    stop being compared and pass forever."""
    measured = entry.get("benchmarks", {})
    missing: list[Verdict] = []
    for benchmark, builds in sorted(newest.get("benchmarks", {}).items()):
        if benchmark not in measured:
            missing.append(Verdict(benchmark, "", "", "missing"))
            continue
        for build, data in sorted(builds.items()):
            measured_build = measured[benchmark].get(build)
            if measured_build is None:
                missing.append(Verdict(benchmark, build, "", "missing"))
                continue
            measured_phases = measured_build.get("phases", {})
            for phase in sorted(data.get("phases", {})):
                if phase not in measured_phases:
                    missing.append(Verdict(benchmark, build, phase, "missing"))
    return missing


def check_entry(
    entry: dict,
    history: list[dict],
    window: int = RECENT_WINDOW,
    min_samples: int = MIN_HISTORY_SAMPLES,
) -> list[Verdict]:
    """Compare a fresh (not yet appended) entry against the ledger.

    Pools each phase's wall-time samples from the last ``window``
    comparable entries (same config hash, same ``--jobs``), estimates
    noise as median + MAD, and issues a verdict per (benchmark, build,
    phase).  A phase regresses only above both the history median plus
    :func:`regression_margin` and ``NOISE_FLOOR_SECONDS``; phases with
    fewer than ``min_samples`` pooled samples pass as ``no-history``.
    Whatever the newest comparable entry holds but ``entry`` lacks fails
    as ``missing``; phases new in ``entry`` pass ungated.  Cycles gate by
    exact equality with the newest comparable entry (jitdiff-style): the
    simulated VM is deterministic, so any difference is a code change,
    ``changed`` until ``repro perf record --note`` records it as intended.
    """
    recent = comparable_entries(
        history, entry.get("config_key", ""), entry.get("env", {}).get("jobs")
    )[-window:]
    verdicts = _missing_verdicts(entry, recent[-1]) if recent else []
    for benchmark, builds in sorted(entry.get("benchmarks", {}).items()):
        for build, data in sorted(builds.items()):
            # Wall-time phases: the gating, noise-aware comparison.
            for phase, samples in sorted(data.get("phases", {}).items()):
                if not samples:
                    continue
                measured = median([float(s) for s in samples])
                pooled = _pooled_phase_samples(recent, benchmark, build, phase)
                if len(pooled) < min_samples:
                    verdicts.append(
                        Verdict(
                            benchmark=benchmark,
                            build=build,
                            metric=phase,
                            verdict="no-history",
                            measured=measured,
                            measured_n=len(samples),
                            history_n=len(pooled),
                        )
                    )
                    continue
                center = median(pooled)
                spread = mad(pooled)
                margin = regression_margin(pooled)
                if measured > center + margin and measured > NOISE_FLOOR_SECONDS:
                    verdict = "regressed"
                elif measured < center - margin:
                    verdict = "improved"
                else:
                    verdict = "pass"
                verdicts.append(
                    Verdict(
                        benchmark=benchmark,
                        build=build,
                        metric=phase,
                        verdict=verdict,
                        measured=measured,
                        measured_n=len(samples),
                        history_median=center,
                        history_mad=spread,
                        history_n=len(pooled),
                        margin=margin,
                    )
                )
            # Cycles: deterministic, so exact against the newest entry.
            cycles = [float(c) for c in data.get("cycles", [])]
            if cycles:
                newest = _entry_cycles(recent[-1], benchmark, build) if recent else []
                if not newest:
                    verdict = "no-history"
                else:
                    verdict = "pass" if set(cycles) == set(newest) else "changed"
                verdicts.append(
                    Verdict(
                        benchmark=benchmark,
                        build=build,
                        metric="cycles",
                        verdict=verdict,
                        measured=median(cycles),
                        measured_n=len(cycles),
                        history_median=median(newest) if newest else None,
                        history_n=len(newest),
                    )
                )
    return verdicts


def render_verdicts(verdicts: list[Verdict]) -> str:
    """The ``repro bench --check`` report: failures first, then the rest."""
    lines: list[str] = []
    regressed = [v for v in verdicts if v.verdict == "regressed"]
    missing = [v for v in verdicts if v.verdict == "missing"]
    changed = [v for v in verdicts if v.verdict == "changed"]
    improved = [v for v in verdicts if v.verdict == "improved"]
    checked = [v for v in verdicts if v.verdict != "missing"]
    phases = [v for v in checked if v.metric != "cycles"]
    cycles = [v for v in checked if v.metric == "cycles"]
    passed = len(phases) - len(regressed) - len(improved)
    header = (
        f"perf check: {len(phases)} phase comparisons — "
        f"{passed} pass, {len(improved)} improved, {len(regressed)} regressed; "
        f"{len(cycles)} cycle counts, {len(changed)} changed"
    )
    lines.append(header + (f", {len(missing)} missing" if missing else ""))
    for verdict in regressed:
        lines.append(f"  REGRESSED {verdict.describe()}")
    for verdict in changed:
        lines.append(f"  CHANGED   {verdict.describe()}")
    for verdict in missing:
        lines.append(f"  MISSING   {verdict.describe()}")
    for verdict in improved:
        lines.append(f"  improved  {verdict.describe()}")
    no_history = [v for v in checked if v.verdict == "no-history"]
    if no_history:
        lines.append(
            f"({len(no_history)} comparison(s) passed ungated — no comparable "
            "history yet; they gate once the ledger grows)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ledger reports: list, diff, trend.


def _entry_cycles_total(entry: dict, build: str = "inline") -> int:
    total = 0
    for builds in entry.get("benchmarks", {}).values():
        cycles = builds.get(build, {}).get("cycles", [])
        if cycles:
            total += int(cycles[0])
    return total


def _format_when(timestamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(timestamp))


def render_history_list(entries: list[dict], limit: int = 20) -> str:
    """``repro perf list``: one row per recorded run, newest last."""
    if not entries:
        return "perf history is empty (run `repro perf record` or `repro bench --check`)"
    lines = [
        f"{'#':>4s} {'recorded at':19s} {'git rev':>12s} {'jobs':>4s} "
        f"{'rep':>3s} {'benchmarks':>10s} {'inline cycles':>14s}"
    ]
    start = max(0, len(entries) - limit)
    for index in range(start, len(entries)):
        entry = entries[index]
        env = entry.get("env", {})
        lines.append(
            f"{index:>4d} {_format_when(float(entry.get('at', 0.0))):19s} "
            f"{str(env.get('git_rev', '?'))[:12]:>12s} "
            f"{env.get('jobs', '?'):>4} {entry.get('repeat', 1):>3} "
            f"{len(entry.get('benchmarks', {})):>10d} "
            f"{_entry_cycles_total(entry):>14d}"
        )
    if start:
        lines.append(f"... ({start} older entr{'y' if start == 1 else 'ies'} not shown)")
    return "\n".join(lines)


def resolve_rev(entries: list[dict], token: str) -> dict:
    """An entry named by index (``0``, ``-1``) or git-revision prefix.

    Revision prefixes resolve to the *latest* matching entry, so
    ``repro perf diff REV1 REV2`` compares the freshest measurement of
    each revision.
    """
    if not entries:
        raise ValueError("perf history is empty")
    try:
        index = int(token)
    except ValueError:
        matches = [
            e
            for e in entries
            if str(e.get("env", {}).get("git_rev", "")).startswith(token)
        ]
        if not matches:
            raise ValueError(
                f"no ledger entry with git revision prefix {token!r} "
                "(see `repro perf list`)"
            ) from None
        return matches[-1]
    try:
        return entries[index]
    except IndexError:
        raise ValueError(
            f"ledger index {index} out of range ({len(entries)} entries)"
        ) from None


def _entry_label(entry: dict) -> str:
    rev = str(entry.get("env", {}).get("git_rev", "?"))[:12]
    return f"{rev} @ {_format_when(float(entry.get('at', 0.0)))}"


def _phase_median(data: dict, phase: str) -> float | None:
    samples = [
        float(s)
        for s in data.get("phases", {}).get(phase, [])
        if isinstance(s, (int, float)) and not isinstance(s, bool)
    ]
    return median(samples) if samples else None


def render_entry_diff(base: dict, diff: dict, phase_threshold: float = 0.10) -> str:
    """Jitdiff-style base-vs-diff report between two ledger entries.

    Cycles (deterministic) lead: every (benchmark, build) with its
    base/diff counts and ratio.  Wall-time phases follow, showing only
    phases whose median moved more than ``phase_threshold`` relative —
    the CoreCLR jitdiff idiom of leading with totals and calling out
    the biggest movers.
    """
    lines = [
        f"perf diff: base {_entry_label(base)}",
        f"           diff {_entry_label(diff)}",
        "",
        f"{'benchmark':24s} {'build':>9s} {'base cycles':>12s} "
        f"{'diff cycles':>12s} {'ratio':>7s}",
    ]
    base_benches = base.get("benchmarks", {})
    diff_benches = diff.get("benchmarks", {})
    regressions = improvements = 0
    for benchmark in sorted(set(base_benches) | set(diff_benches)):
        builds = sorted(
            set(base_benches.get(benchmark, {})) | set(diff_benches.get(benchmark, {}))
        )
        for build in builds:
            base_cycles = base_benches.get(benchmark, {}).get(build, {}).get("cycles", [])
            diff_cycles = diff_benches.get(benchmark, {}).get(build, {}).get("cycles", [])
            if not base_cycles or not diff_cycles:
                missing = "base" if not base_cycles else "diff"
                lines.append(
                    f"{benchmark:24s} {build:>9s} (missing from {missing} entry)"
                )
                continue
            b, d = int(base_cycles[0]), int(diff_cycles[0])
            ratio = d / b if b else float("inf")
            marker = ""
            if d > b:
                marker = "  <- regressed"
                regressions += 1
            elif d < b:
                marker = "  <- improved"
                improvements += 1
            lines.append(
                f"{benchmark:24s} {build:>9s} {b:>12d} {d:>12d} {ratio:>7.3f}{marker}"
            )
    lines.append("")
    lines.append(
        f"cycles: {improvements} (benchmark, build) pairs improved, "
        f"{regressions} regressed"
    )

    moved: list[str] = []
    for benchmark in sorted(set(base_benches) & set(diff_benches)):
        for build in sorted(
            set(base_benches[benchmark]) & set(diff_benches[benchmark])
        ):
            base_data = base_benches[benchmark][build]
            diff_data = diff_benches[benchmark][build]
            phases = sorted(
                set(base_data.get("phases", {})) | set(diff_data.get("phases", {}))
            )
            for phase in phases:
                b = _phase_median(base_data, phase)
                d = _phase_median(diff_data, phase)
                if b is None or d is None or b == 0:
                    continue
                rel = (d - b) / b
                if abs(rel) >= phase_threshold and abs(d - b) >= 0.001:
                    moved.append(
                        f"  {benchmark}/{build}/{phase}: "
                        f"{b * 1e3:.2f}ms -> {d * 1e3:.2f}ms ({rel:+.1%})"
                    )
    if moved:
        lines.append("")
        lines.append(
            f"phase medians moved >= {phase_threshold:.0%} (wall time; noisy):"
        )
        lines.extend(moved)
    return "\n".join(lines)


#: Eight shades, worst to best resolution the terminal gives us.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """Map a series onto ▁▂▃▄▅▆▇█ (empty string for no data)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high == low:
        return SPARK_CHARS[0] * len(values)
    span = high - low
    chars = []
    for value in values:
        step = int((value - low) / span * (len(SPARK_CHARS) - 1))
        chars.append(SPARK_CHARS[step])
    return "".join(chars)


def metric_series(
    entries: list[dict], benchmark: str, build: str, metric: str
) -> list[float]:
    """``metric`` over the ledger for one (benchmark, build), oldest first.

    ``"cycles"`` reads the deterministic cycle count; any other name is
    a phase (``analyze``, ``opt.dce``, ...) or per-build timing bucket
    (``optimize_seconds``, ``run_seconds``) whose per-entry median is
    used.  Entries lacking the metric are skipped.
    """
    series: list[float] = []
    for entry in entries:
        data = entry.get("benchmarks", {}).get(benchmark, {}).get(build)
        if not data:
            continue
        if metric == "cycles":
            cycles = data.get("cycles", [])
            if cycles:
                series.append(float(cycles[0]))
            continue
        if metric in ("optimize_seconds", "run_seconds"):
            samples = [float(s) for s in data.get(metric, [])]
            if samples:
                series.append(median(samples))
            continue
        value = _phase_median(data, metric)
        if value is not None:
            series.append(value)
    return series


def render_trend(
    entries: list[dict],
    metric: str,
    build: str = "inline",
    last: int = 40,
) -> str:
    """``repro perf trend METRIC``: one sparkline per benchmark."""
    if not entries:
        return "perf history is empty (run `repro perf record` or `repro bench --check`)"
    entries = entries[-last:]
    benchmarks = sorted({name for e in entries for name in e.get("benchmarks", {})})
    unit = "" if metric == "cycles" else " ms"
    scale = 1.0 if metric == "cycles" else 1e3
    lines = [f"trend of {metric} ({build} build, {len(entries)} entr"
             f"{'y' if len(entries) == 1 else 'ies'}):"]
    plotted = 0
    for benchmark in benchmarks:
        series = metric_series(entries, benchmark, build, metric)
        if not series:
            continue
        plotted += 1
        latest = series[-1] * scale
        low, high = min(series) * scale, max(series) * scale
        lines.append(
            f"  {benchmark:24s} {sparkline(series):40s} "
            f"latest {latest:.4g}{unit} (min {low:.4g}, max {high:.4g}, n={len(series)})"
        )
    if not plotted:
        lines.append(
            f"  no data for metric {metric!r} on build {build!r} "
            "(try `cycles`, a phase name like `analyze`, or `optimize_seconds`)"
        )
    return "\n".join(lines)

"""Shared pieces of the benchmark: frozen inputs, statistics, results.

Everything here is independent of the workload being measured.  The
package under test (``src/repro``) is imported by the workload modules,
never here, so ``run.py`` can report a missing checkout cleanly.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
#: Scratch output (sockets, span files), inside the checkout and ignored by git.
OUT = ROOT / ".perfbench_out"

#: How many times a workload repeats its set-up; ``setup_s`` is the median.
#: svc-mixed, whose set-up takes seconds, repeats it three times.
SETUP_REPEATS = 5

#: The five pipeline builds of ``repro.session.BUILD_CONFIGS`` that compile.
PIPELINE_BUILDS = ("noinline", "inline", "noescape", "manual", "opt")


class BenchError(RuntimeError):
    """The benchmark cannot run (not a failed operation of the program)."""


# ----------------------------------------------------------------------
# Frozen inputs.


def load_pool() -> list[dict]:
    """The generated-program pool (seed, source, expected plain output)."""
    with gzip.open(DATA / "pool.json.gz", "rt", encoding="utf-8") as handle:
        return json.load(handle)


def load_fig17() -> dict:
    """Frozen expected output and source hash per Figure-17 program."""
    return json.loads((DATA / "fig17.json").read_text())


def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def fig17_programs() -> list[tuple[str, str, list[str] | None]]:
    """``(name, source, expected output)`` of the Figure-17 programs.

    The expected output is ``None`` when the source no longer matches
    the frozen hash: the run would measure a different program, and
    the caller counts each of its operations as failed.
    """
    from repro.bench.harness import PERFORMANCE_PROGRAMS

    frozen = load_fig17()
    programs = []
    for name, source in PERFORMANCE_PROGRAMS.items():
        entry = frozen.get(name)
        ok = entry is not None and entry["sha256"] == source_hash(source)
        programs.append((name, source, entry["expected"] if ok else None))
    return programs


# ----------------------------------------------------------------------
# Statistics.


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90 with at least ten samples beyond it.

    With too few samples for any, the maximum.  Returns the label of
    the statistic used and its value.
    """
    for pct in (99, 95, 90):
        rank = max(1, math.ceil(pct / 100.0 * len(values)))
        if len(values) - rank >= 10:
            return f"p{pct}", percentile(values, pct)
    return "max", max(values)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mib() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(setup, repeats: int):
    """Run ``setup()`` ``repeats`` times; return (last state, windows).

    ``setup`` receives the previous state (``None`` first) so it can
    release what the earlier repetition built, such as a daemon.  The
    windows are the ``(start, end)`` perf-counter times of each
    repetition, for :meth:`HostSpeed.median_seconds`.
    """
    state = None
    windows = []
    for _ in range(repeats):
        started = time.perf_counter()
        state = setup(state)
        windows.append((started, time.perf_counter()))
    return state, windows


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"{seed}:{purpose}")


def more_passes(pass_seconds: list[float], seconds: float) -> bool:
    """Whether to start another pass: always a first, then while the
    last pass's duration still fits in the ``seconds`` budget."""
    return not pass_seconds or sum(pass_seconds) + pass_seconds[-1] <= seconds


# ----------------------------------------------------------------------
# Host speed.

#: About the CPU time one calibration round of the sampler process
#: takes on the reference box (2-core x86, CPython 3.11) while a workload
#: keeps the other core busy; back to back in an idle process a round
#: takes 0.016 s.  Only a unit: it cancels when two runs are compared.
CALIBRATION_NOMINAL_S = 0.025
#: Sampler rounds per second.  One round costs the host 16-60 ms of one
#: core, so the sampler takes up to a fifth of a core.
SAMPLES_PER_S = 4.0
#: Rounds that started this close to an operation also count for it, so
#: even an operation shorter than the sampling interval gets a factor
#: from the host state around it.
WINDOW_PAD_S = 0.5


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next_node) -> None:
        self.value = value
        self.next = next_node

    def get(self) -> int:
        return self.value


def _calibration_round() -> int:
    """Fixed pure-Python work shaped like the system's own: object
    allocation, attribute and dict access, method calls.  It imports
    nothing from the package under test, so no change to the program
    can change its speed."""
    total = 0
    table: dict[int, _Node] = {}
    for outer in range(300):
        head = None
        for i in range(200):
            head = _Node(i ^ outer, head)
            table[i & 63] = head
        items = []
        while head is not None:
            total += head.get()
            items.append(head)
            head = head.next
        total += len(items) + table[outer & 63].value
    return total


class HostSpeed:
    """How fast this shared host ran Python, moment by moment.

    The reference box switches between a fast and a slow state within
    seconds; in the slow state the same code takes 1.6-1.9x as long, on
    both cores at once.  :class:`BackgroundHostSpeed` times a fixed
    calibration round a few times a second while a workload runs, and
    each operation's time is divided by :meth:`factor` over the
    operation's own window (:meth:`normalise`), which expresses it at
    the reference box's fast state.

    A sample is ``(start, cpu seconds)``: when the round started, on the
    ``time.perf_counter`` clock (``CLOCK_MONOTONIC`` on Linux, so shared
    by every process), and the CPU time the round took.  CPU time, not
    wall time, because the round's wall time also counts the slices in
    which the scheduler ran another process on the sampler's core -- it
    doubled when the sampler shared a core with the workload -- while
    its CPU time moves only with the speed of the core itself.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        started = time.perf_counter()
        cpu_started = time.thread_time()
        _calibration_round()
        self.samples.append((started, time.thread_time() - cpu_started))

    def factor(self, start: float, end: float) -> float:
        """Mean round over ``[start, end]`` (widened by ``WINDOW_PAD_S``)
        ÷ the nominal round: above 1 when the host ran slower than the
        reference.  With no round in the window, the nearest round."""
        if not self.samples:
            raise BenchError("no host-speed samples")
        window = [seconds for started, seconds in self.samples
                  if start - WINDOW_PAD_S <= started <= end + WINDOW_PAD_S]
        if not window:
            middle = (start + end) / 2
            window = [min(self.samples, key=lambda pair: abs(pair[0] - middle))[1]]
        return statistics.fmean(window) / CALIBRATION_NOMINAL_S

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` spent in the window ``[start, end]``, expressed at
        the reference box's fast state."""
        return seconds / self.factor(start, end)

    def median_seconds(self, windows: list[tuple[float, float]]) -> float:
        """Median normalised wall time of the windows (set-up repetitions)."""
        return median([self.normalise(end - start, start, end) for start, end in windows])

    def overall(self) -> float:
        """The factor over every sample, for the report."""
        return statistics.fmean(seconds for _, seconds in self.samples) / CALIBRATION_NOMINAL_S


def _sample_until_stopped(interval: float) -> None:
    """Sampler process body: one round, ``ready``, then one round per
    ``interval`` until a line (or end of file) arrives on standard
    input; then the samples as one JSON line."""
    host = HostSpeed()
    host.sample()
    print("ready", flush=True)
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], interval)
        if readable:
            break
        host.sample()
    print(json.dumps(host.samples), flush=True)


class BackgroundHostSpeed:
    """Samples :class:`HostSpeed` from a separate process for the length
    of a ``with`` block.

    The workload's own process stays free of calibration work, and even
    an operation that runs for seconds gets samples from inside its own
    window.  The sampler is a plain subprocess running this file, waited
    for on every way out; ``multiprocessing`` is avoided because its
    ``spawn`` start method also starts a resource-tracker process that
    outlives the benchmark.  The samples reach ``host`` when the block
    ends.
    """

    def __init__(self, host: HostSpeed, interval: float = 1.0 / SAMPLES_PER_S) -> None:
        self.host = host
        self._command = [sys.executable, str(Path(__file__).resolve()), "--sample-host",
                         repr(interval)]
        self._process: subprocess.Popen | None = None

    def __enter__(self) -> "BackgroundHostSpeed":
        self._process = subprocess.Popen(
            self._command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            if self._process.stdout.readline().strip() != "ready":
                raise BenchError("the host-speed sampler did not start")
        except BaseException:
            self._end()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._end()
        if not self.host.samples:
            # The sampler never reported (it failed); one round here.
            self.host.sample()

    def _end(self) -> None:
        process = self._process
        try:
            output, _ = process.communicate("stop\n", timeout=30)
            if process.returncode == 0 and output.strip():
                self.host.samples.extend(
                    (started, seconds) for started, seconds in json.loads(output)
                )
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()


# ----------------------------------------------------------------------
# Results.


@dataclass
class Result:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics: name -> value, as declared in ``BENCHMARK.json``.
    e2e: dict[str, float] = field(default_factory=dict)
    #: Per-layer metrics of a traced run: name -> value; an idle layer's
    #: metrics may be missing and report 0.
    layers: dict[str, float] = field(default_factory=dict)
    #: Human-readable report lines printed before the JSON line.
    lines: list[str] = field(default_factory=list)
    #: Failure descriptions (first few are printed).
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def say(self, line: str) -> None:
        self.lines.append(line)


if __name__ == "__main__":
    # ``python3 common.py --sample-host INTERVAL``: the sampler process
    # of :class:`BackgroundHostSpeed`.
    if len(sys.argv) != 3 or sys.argv[1] != "--sample-host":
        raise SystemExit("usage: common.py --sample-host INTERVAL")
    _sample_until_stopped(float(sys.argv[2]))

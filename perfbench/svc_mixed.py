"""Workload ``svc-mixed``: open-loop traffic against a ``repro serve`` daemon.

Set-up starts ``python -m repro.cli serve --workers 1`` as a subprocess,
pre-warms its artifact store with an ``optimize`` request for each
Figure-17 program, and computes the expected reply of every request
in-process through ``repro.service.worker.service_work``, as
``repro loadgen --verify`` does.

The load is open-loop: arrivals follow a seeded Poisson schedule at
``RATE`` requests per second, sent from one asyncio loop over
``CONNECTIONS`` persistent ``ServiceClient`` connections, each driven
from its own executor thread because the client is blocking.  A request
waits in the benchmark's queue while both connections are busy, and its
latency runs from when it was due, so a stall shows on the requests
behind it.  Nine in ten requests repeat a Figure-17 ``optimize``
(answered from the store); every tenth is cold, each for a distinct
program of the frozen pool (answered by the worker).

One operation is one request.  It fails on an error reply, a timeout,
or an ok reply that differs from the expected reply.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import itertools
import json
import os
import selectors
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

import layers
from common import (
    OUT,
    ROOT,
    BackgroundHostSpeed,
    BenchError,
    HostSpeed,
    Result,
    fig17_programs,
    load_pool,
    median,
    peak_rss_mib,
    percentile,
    rng_for,
    tail,
    timed_setup,
)

#: Offered load.  When this benchmark was added, on a 2-core x86 box, a
#: cold request kept the single worker busy for 35-45 ms and a warm one
#: cost the daemon about 0.3 ms, so 100 req/s with one request in twenty
#: cold keeps the worker about 20 % busy: well below saturation, so the
#: queue does not grow, yet a slower worker or dispatch path shows in
#: the tail.
RATE = 100.0
#: Every COLD_EVERY-th arrival is cold.  Spacing the cold requests
#: evenly through the Poisson stream, instead of drawing each arrival's
#: kind at random, keeps two cold compiles from landing on the single
#: worker at once by chance; a random draw made the p99 swing by 2x
#: between seeds (README.md, "Why svc-mixed has its own load generator").
COLD_EVERY = 20
CONNECTIONS = 2
#: A request answered correctly within this limit meets the SLO.  The
#: cold p90 was then about 60 ms.
SLO_MS = 100.0
REQUEST_TIMEOUT_S = 5.0
CLIENT_TIMEOUT_S = 10.0
#: The programs cold requests compile: the first COLD_SET programs of the
#: frozen pool, the same for every seed.  The tail of this workload is
#: set by its few slowest cold compiles, so a per-seed draw of programs
#: would make the p99 measure the draw more than the service.  The seed
#: still chooses the schedule, which arrivals are cold and the order in
#: which the cold programs come.
COLD_SET = 100
#: Cold keys cycle through the set once per build, so a run never asks
#: for the same (program, build) twice.
COLD_BUILDS = ("inline", "noinline", "noescape", "manual", "opt")
#: Each set-up takes seconds (the expected replies dominate), so fewer
#: repetitions than the other workloads.
SETUP_REPEATS = 3


@dataclass(slots=True)
class Item:
    """One scheduled request."""

    offset: float  # seconds after the start of the load
    key: str  # expected-reply key
    name: str
    source: str
    config: dict
    cold: bool
    #: A Figure-17 source that no longer matches its frozen hash.
    stale: bool = False


@dataclass(slots=True)
class Sample:
    due: float
    sent: float
    done: float
    ok: bool
    correct: bool
    cached: bool
    elapsed_ms: float | None
    error: str | None


def _schedule(seed: int, seconds: float) -> list[Item]:
    """The seeded arrival schedule: exactly ``RATE * seconds`` requests.

    Exponential gaps, rescaled to end at ``seconds`` (Poisson arrivals
    conditioned on their count), so every seed offers the same number
    of requests.
    """
    from repro import CompileConfig

    rng = rng_for(seed, "svc-schedule")
    count = max(1, round(RATE * seconds))
    gaps = [rng.expovariate(RATE) for _ in range(count)]
    scale = seconds / sum(gaps)
    phase = rng.randrange(COLD_EVERY)
    cold_count = sum(1 for slot in range(count) if slot % COLD_EVERY == phase)
    cold_set = load_pool()[:COLD_SET]
    if cold_count > len(cold_set) * len(COLD_BUILDS):
        raise BenchError(f"{cold_count} cold requests need a larger program pool")
    order = rng.sample(range(len(cold_set)), len(cold_set))
    warm = [
        (name, source, CompileConfig.for_build("inline").to_dict(), expected is None)
        for name, source, expected in fig17_programs()
    ]
    items = []
    offset = 0.0
    cold_index = 0
    for slot in range(count):
        offset += gaps[slot] * scale
        if slot % COLD_EVERY == phase:
            build = COLD_BUILDS[cold_index // len(cold_set)]
            entry = cold_set[order[cold_index % len(cold_set)]]
            cold_index += 1
            name = f"gen{entry['seed']}"
            config = CompileConfig.for_build(build).to_dict()
            items.append(Item(offset, f"{name}/{build}", name, entry["source"], config, True))
        else:
            name, source, config, stale = rng.choice(warm)
            items.append(Item(offset, f"{name}/inline", name, source, config, False, stale))
    return items


# ----------------------------------------------------------------------
# The daemon.


class Daemon:
    """One ``repro serve`` subprocess on a socket inside the checkout."""

    def __init__(self, tag: str) -> None:
        from repro.service import ServiceClient

        OUT.mkdir(exist_ok=True)
        socket_abs = OUT / f"svc-{os.getpid()}-{tag}.sock"
        socket_abs.unlink(missing_ok=True)
        # Relative paths keep the socket name under the 108-byte limit
        # however deep the checkout is.
        self.socket = os.path.relpath(socket_abs)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(OUT))
        self.control = None
        self._log = open(OUT / f"svc-{os.getpid()}-{tag}.log", "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket",
             os.path.relpath(socket_abs, ROOT), "--workers", "1"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=self._log, stderr=self._log,
        )
        try:
            self.control = ServiceClient(
                self.socket, timeout=CLIENT_TIMEOUT_S, connect_retries=9, retry_backoff=0.02
            )
        except OSError as error:
            self.stop()
            raise BenchError(f"daemon did not start: {error}") from None
        except BaseException:
            self.stop()
            raise

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(self.socket, timeout=CLIENT_TIMEOUT_S)

    def peak_rss_mib(self) -> float:
        """Peak RSS of the daemon and its worker processes (Linux /proc)."""
        total_kib = 0
        for pid in [self.process.pid, *_children(self.process.pid)]:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except FileNotFoundError:
                continue
        return total_kib / 1024.0

    def stop(self) -> None:
        from repro.service import ServiceError

        # The worker processes are the daemon's children; once the daemon
        # has gone they are nobody's to wait for, so note them first.
        workers = _descendants(self.process.pid) if self.process.poll() is None else []
        try:
            if self.process.poll() is None:
                try:
                    if self.control is None:
                        raise ConnectionError("never connected")
                    self.control.shutdown()
                except (OSError, ServiceError):
                    self.process.terminate()
                try:
                    self.process.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=20)
        finally:
            _end_all(workers)
            if self.control is not None:
                self.control.close()
            self._log.close()
        if self.process.returncode == 0:
            Path(self._log.name).unlink(missing_ok=True)


def _descendants(pid: int) -> list[int]:
    found = []
    for child in _children(pid):
        found.append(child)
        found.extend(_descendants(child))
    return found


def _ended(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # The state follows the parenthesised command name.
            return handle.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except (FileNotFoundError, ProcessLookupError):
        return True


def _wait_ended(pids: list[int], seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while any(not _ended(pid) for pid in pids):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


def _end_all(pids: list[int], grace_s: float = 10.0) -> None:
    """Wait until each process has ended, killing any still running after ``grace_s``."""
    if _wait_ended(pids, grace_s):
        return
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if not _wait_ended(pids, grace_s):
        raise BenchError(f"processes {[pid for pid in pids if not _ended(pid)]} did not end")


def _children(pid: int) -> list[int]:
    children = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(child) for child in handle.read().split())
    except FileNotFoundError:
        pass
    return children


def _setup(items: list[Item], tag: str, previous):
    """Start a daemon, pre-warm its store and compute the expected replies."""
    from repro.service.worker import service_work

    if previous is not None:
        previous[0].stop()
    daemon = Daemon(tag)
    try:
        warm = {item.key: item for item in items if not item.cold}
        for item in warm.values():
            reply = daemon.control.request(
                "optimize", source=item.source, path=f"{item.name}.icc", config=item.config,
                timeout=60.0,
            )
            if not reply.ok:
                raise BenchError(f"pre-warm of {item.key} failed: {reply.error}")
        expected = {}
        for item in {item.key: item for item in items}.values():
            product = service_work({
                "op": "optimize",
                "source": item.source,
                "path": f"{item.name}.icc",
                "config": item.config,
                # A tenant per set-up keeps the in-process session pool
                # cold, so every repetition does the same work.
                "tenant": f"oracle-{tag}",
            })
            expected[item.key] = json.loads(json.dumps(product.reply, sort_keys=True))
        clients = [daemon.client() for _ in range(CONNECTIONS)]
    except BaseException:
        daemon.stop()
        raise
    return daemon, clients, expected


# ----------------------------------------------------------------------
# The open-loop load.


def _send(client, item: Item):
    """One blocking round trip on a connection thread: (sent, done, reply, error)."""
    from repro.service import ServiceError

    sent = time.perf_counter()
    try:
        reply = client.request(
            "optimize", source=item.source, path=f"{item.name}.icc", config=item.config,
            timeout=REQUEST_TIMEOUT_S,
        )
        return sent, time.perf_counter(), reply, None
    except (ServiceError, OSError) as error:
        # A timed-out connection may still deliver the late reply; start over.
        client.close()
        return sent, time.perf_counter(), None, f"{type(error).__name__}: {error}"


async def _drive(items: list[Item], clients, expected) -> tuple[list[Sample], list[float]]:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    samples: list[Sample | None] = [None] * len(items)
    lateness: list[float] = []

    async def connection(client, executor) -> None:
        while True:
            job = await queue.get()
            if job is None:
                return
            index, due = job
            item = items[index]
            sent, done, reply, error = await loop.run_in_executor(
                executor, functools.partial(_send, client, item)
            )
            ok = reply is not None and reply.ok
            if reply is not None and not reply.ok:
                error = reply.error
            samples[index] = Sample(
                due=due,
                sent=sent,
                done=done,
                ok=ok,
                correct=ok and reply.result == expected[item.key],
                cached=ok and reply.cached,
                elapsed_ms=None if reply is None else reply.elapsed_ms,
                error=error,
            )

    with ThreadPoolExecutor(max_workers=len(clients)) as executor:
        tasks = [asyncio.create_task(connection(c, executor)) for c in clients]
        start = time.perf_counter() + 0.05
        for index, item in enumerate(items):
            due = start + item.offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            queue.put_nowait((index, due))
        for _ in tasks:
            queue.put_nowait(None)
        await asyncio.gather(*tasks)
    return samples, lateness


def _daemon_counters(daemon) -> dict[str, float]:
    """Store, dispatch and worker counters from the ``stats`` and ``metrics`` ops."""
    stats = daemon.control.stats()
    families = daemon.control.metrics()

    def total(family: str, field: str = "value") -> float:
        entry = families.get(family) or {"series": []}
        return sum(series[field] for series in entry["series"])

    return {
        "hits": stats["store"]["hits"],
        "misses": stats["store"]["misses"],
        "coalesced": stats["coalesced"],
        "errors": stats["errors"] + stats["timeouts"],
        "puts": total("service_store_puts_total"),
        "worker_s": total("service_worker_op_seconds", "sum"),
        "worker_ops": total("service_worker_op_seconds", "count"),
    }


def _load(items, setup_state):
    daemon, clients, expected = setup_state
    before = _daemon_counters(daemon)
    # select() sleeps to the microsecond; epoll rounds every timeout up
    # to a whole millisecond, which would make the generator late.
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    # The set-up left many objects behind; a full collection in the
    # generator mid-load would be charged to the requests waiting on it.
    gc.collect()
    gc.freeze()
    try:
        samples, lateness = loop.run_until_complete(_drive(items, clients, expected))
    finally:
        loop.close()
        gc.unfreeze()
    after = _daemon_counters(daemon)
    delta = {key: after[key] - before[key] for key in before}
    return samples, lateness, delta


def _latency_ms(sample: Sample) -> float:
    return (sample.done - sample.due) * 1e3


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    items = _schedule(seed, seconds)
    tags = itertools.count()
    host = HostSpeed()
    with BackgroundHostSpeed(host):
        state, setup_windows = timed_setup(
            lambda previous: _setup(items, f"{seed}-{next(tags)}", previous),
            1 if trace else SETUP_REPEATS,
        )
        try:
            samples, lateness, delta = _load(items, state)
            daemon_rss = state[0].peak_rss_mib()
        finally:
            _close(state)
    _account(items, samples, result)

    latencies = [_latency_ms(s) for s in samples]
    normal = [host.normalise(s.done - s.due, s.due, s.done) * 1e3 for s in samples]
    warm = [_latency_ms(s) for s in samples if s.cached]
    cold = [_latency_ms(s) for s in samples if s.ok and not s.cached]
    good = [s for s in samples if s.correct and _latency_ms(s) <= SLO_MS]
    span = max(s.done for s in samples) - min(s.due for s in samples)
    tail_label, tail_ms = tail(normal)
    setup_s = median([end - start for start, end in setup_windows])
    result.e2e = {
        "op_p50_ms": median(normal),
        "op_tail_ms": tail_ms,
        # Goodput is bounded by the offered rate, not by host speed.
        "work_per_s": len(good) / span,
        "setup_s": host.median_seconds(setup_windows),
        "peak_rss_mb": peak_rss_mib() + daemon_rss,
    }
    result.say(f"requests {len(samples)} ({len(cold)} cold, {len(warm)} warm) at "
               f"{RATE:g} req/s offered, tail statistic {tail_label}")
    result.say(f"host factor {host.overall():.4f} over {len(host.samples)} samples; "
               f"raw setup {setup_s:.3f} s; report lines are raw")
    result.say(f"svc_p50_ms          {median(latencies):.3f} ms")
    result.say(f"svc_p99_ms          {percentile(latencies, 99):.3f} ms")
    if warm:
        result.say(f"svc_warm_p99_ms     {percentile(warm, 99):.3f} ms")
    if cold:
        result.say(f"svc_cold_p50_ms     {median(cold):.3f} ms")
    result.say(f"svc_slo_frac        {len(good) / len(samples):.6f} (correct within {SLO_MS:g} ms)")
    result.say(f"  generator late p99 {percentile(lateness, 99) * 1e3:.3f} ms; "
               f"daemon+worker peak RSS {daemon_rss:.1f} MiB")

    if trace:
        result.layers = _traced_load(items, seed, samples, result)
    return result


def _close(state) -> None:
    daemon, clients, _expected = state
    for client in clients:
        client.close()
    daemon.stop()


def _account(items, samples, result: Result) -> None:
    for item, sample in zip(items, samples):
        result.attempted += 1
        if not sample.ok:
            result.fail(f"{item.key}: {sample.error}")
        elif not sample.correct:
            result.fail(f"{item.key}: reply differs from the expected reply")
        elif item.stale:
            result.fail(f"{item.key}: source differs from the frozen Figure-17 program")


def _traced_load(items, seed: int, untraced: list[Sample], result: Result) -> dict[str, float]:
    """Run the same schedule again against a fresh daemon, recording spans.

    The benchmark process only sends requests here, so the layer probe
    should see nothing: its coverage figures confirm that the compile
    and runtime layers stay idle in-process during the load.
    """
    state = _setup(items, f"{seed}-traced", None)
    recorder = layers.SpanRecorder()
    try:
        with layers.LayerProbe(recorder):
            samples, lateness, delta = _load(items, state)
    finally:
        _close(state)
    _account(items, samples, result)

    for index, sample in enumerate(samples):
        request = str(index)
        parent = recorder.add("service.request", sample.due, sample.done, request=request)
        recorder.add("service.queue", sample.due, sample.sent, parent, request)
        recorder.add("service.roundtrip", sample.sent, sample.done, parent, request)
    origin = min(s.due for s in samples)
    recorder.write_chrome(OUT / f"trace-svc-mixed-{seed}.json", origin)

    queue_ms = [(s.sent - s.due) * 1e3 for s in samples]
    wire_ms = [(s.done - s.sent) * 1e3 - s.elapsed_ms for s in samples if s.elapsed_ms is not None]
    warm_ms = [s.elapsed_ms for s in samples if s.cached and s.elapsed_ms is not None]
    cold_ms = [s.elapsed_ms for s in samples if s.ok and not s.cached and s.elapsed_ms is not None]
    worker_mean_ms = delta["worker_s"] / delta["worker_ops"] * 1e3 if delta["worker_ops"] else 0.0
    lookups = delta["hits"] + delta["misses"]
    t0 = origin
    t1 = max(s.done for s in samples)
    metrics = layers.timed_layers(recorder, t0, t1)
    metrics.update({
        "service.client_queue_ms_p50": median(queue_ms),
        "service.client_queue_ms_p99": percentile(queue_ms, 99),
        "service.wire_ms": median(wire_ms) if wire_ms else 0.0,
        "service.daemon_warm_ms": median(warm_ms) if warm_ms else 0.0,
        "service.daemon_cold_ms": median(cold_ms) if cold_ms else 0.0,
        "service.worker_s": delta["worker_s"],
        "service.dispatch_ms": fmean(cold_ms) - worker_mean_ms if cold_ms else 0.0,
        "service.store_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "service.store_puts": delta["puts"],
        "service.coalesced": delta["coalesced"],
        "service.errors": delta["errors"],
        "bench.gen_late_ms_p99": percentile(lateness, 99) * 1e3,
        "bench.trace_overhead": fmean(map(_latency_ms, samples))
        / fmean(map(_latency_ms, untraced)),
    })
    return metrics

"""Workload ``vm-fig17``: the Figure-17 programs on the VM.

Set-up compiles the ``noinline`` and ``inline`` builds of the five
Figure-17 programs; the timed region only executes them with
``repro.runtime.run_program``, so the runtime layer does all the timed
work.  One operation is one execution of one (program, build).  The
seed fixes the order of the ten executions within a pass.
"""

from __future__ import annotations

import time

import layers
from common import (
    OUT,
    SETUP_REPEATS,
    BackgroundHostSpeed,
    HostSpeed,
    Result,
    fig17_programs,
    geomean,
    median,
    more_passes,
    peak_rss_mib,
    rng_for,
    tail,
    timed_setup,
)

BUILDS = ("noinline", "inline")


def _setup(_previous):
    from repro import CompileConfig, Session

    builds = []
    for name, source, expected in fig17_programs():
        session = Session(source, path=f"{name}.icc")
        for build in BUILDS:
            report = session.optimize(CompileConfig.for_build(build))
            builds.append((name, build, report, expected))
    return builds


def _one_pass(builds, order, result: Result):
    """Execute every build once; returns [(index, start, end, cpu seconds, stats)]."""
    import repro.runtime as runtime

    samples = []
    for index in order:
        name, build, report, expected = builds[index]
        result.attempted += 1
        started = time.perf_counter()
        cpu_started = time.thread_time()
        try:
            run = runtime.run_program(report.program)
        except Exception as error:  # noqa: BLE001 - a crashed run is a failed operation
            result.fail(f"{name}/{build}: {type(error).__name__}: {error}")
            continue
        cpu = time.thread_time() - cpu_started
        ended = time.perf_counter()
        if expected is None:
            result.fail(f"{name}: source differs from the frozen Figure-17 program")
        elif list(run.output) != expected:
            result.fail(f"{name}/{build}: output {run.output!r} != expected {expected!r}")
        samples.append((index, started, ended, cpu, run.stats))
    return samples


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.codegen import code_size

    result = Result()
    order_rng = rng_for(seed, "vm-order")
    host = HostSpeed()
    samples = []
    pass_seconds = []
    with BackgroundHostSpeed(host):
        builds, setup_windows = timed_setup(_setup, 1 if trace else SETUP_REPEATS)
        order = list(range(len(builds)))
        order_rng.shuffle(order)
        while more_passes(pass_seconds, seconds):
            pass_started = time.perf_counter()
            samples.extend(_one_pass(builds, order, result))
            pass_seconds.append(time.perf_counter() - pass_started)
    if not samples:
        return result

    walls = [end - start for _, start, end, _, _ in samples]
    normal = [host.normalise(cpu, start, end) for _, start, end, cpu, _ in samples]
    instructions = sum(stats.instructions for *_, stats in samples)
    per_build: dict[int, list[float]] = {}
    cycles: dict[tuple[str, str], int] = {}
    for (index, *_, stats), wall in zip(samples, walls):
        per_build.setdefault(index, []).append(wall)
        name, build = builds[index][:2]
        cycles[(name, build)] = stats.cycles()
    names = sorted({name for name, _ in cycles})
    inline_cycles = [cycles[(n, "inline")] for n in names if (n, "inline") in cycles]
    speedups = [
        cycles[(n, "noinline")] / cycles[(n, "inline")]
        for n in names
        if (n, "noinline") in cycles and (n, "inline") in cycles
    ]
    tail_label, tail_s = tail(normal)
    code_bytes = sum(code_size(b[2].program) for b in builds if b[1] == "inline")
    setup_s = median([end - start for start, end in setup_windows])

    result.e2e = {
        "op_p50_ms": median(normal) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "work_per_s": instructions / sum(normal),
        "setup_s": host.median_seconds(setup_windows),
        "peak_rss_mb": peak_rss_mib(),
    }
    result.say(f"passes {len(pass_seconds)}, runs {len(samples)}, tail statistic {tail_label}")
    result.say(f"host factor {host.overall():.4f} over {len(host.samples)} samples; raw: "
               f"op_p50 {median(walls) * 1e3:.1f} ms, op_tail {tail(walls)[1] * 1e3:.1f} ms, "
               f"setup {setup_s:.3f} s; report lines are raw")
    result.say(f"vm_instr_per_s      {instructions / sum(walls):.0f} instr/s")
    result.say(
        "vm_run_s            "
        f"{geomean([median(v) for v in per_build.values()]):.4f} s"
    )
    if inline_cycles:
        result.say(f"sim_cycles          {geomean(inline_cycles):.1f} cycles (deterministic)")
    if speedups:
        result.say(f"fig17_speedup       {geomean(speedups):.6f} ratio (deterministic)")
    result.say(f"code_bytes          {code_bytes} bytes (inline builds, deterministic)")
    for name in names:
        row = "  ".join(
            f"{build} {cycles[(name, build)]} cyc" for build in BUILDS if (name, build) in cycles
        )
        result.say(f"  {name:18s} {row}")
    first_pass_stats = [stats for *_, stats in samples[: len(order)]]
    for key, value in layers.stats_counts(first_pass_stats).items():
        result.say(f"  {key} {int(value)} (one pass, deterministic)")

    if trace:
        result.layers = _traced_pass(builds, order, pass_seconds[0], seed, result)
    return result


def _traced_pass(builds, order, untraced_pass_s: float, seed: int, result: Result):
    recorder = layers.SpanRecorder()
    with layers.LayerProbe(recorder):
        t0 = time.perf_counter()
        samples = _one_pass(builds, order, result)
        t1 = time.perf_counter()
    metrics = layers.timed_layers(recorder, t0, t1)
    metrics.update(layers.stats_counts([stats for *_, stats in samples]))
    metrics.update(layers.report_counts([b[2] for b in builds]))
    metrics["bench.trace_overhead"] = (t1 - t0) / untraced_pass_s
    recorder.write_chrome(OUT / f"trace-vm-fig17-{seed}.json", t0)
    return metrics

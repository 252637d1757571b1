"""Workload ``compile-mix``: the five pipeline builds of a mix of programs.

One pass takes every program of the mix -- the five Figure-17 sources
plus a seeded draw of ``DRAW`` programs from the frozen pool -- opens a
fresh ``Session`` for it and calls ``optimize`` for each of the five
pipeline builds.  One operation is one ``optimize`` call.  No program
runs on the VM inside the timed region; after it, the ``inline`` build
of every generated program runs once and must print its frozen output.
The seed chooses the draw and the order of the programs in a pass.  The
draw is stratified: the pool, sorted by source length, is cut into
``DRAW`` equal slices and the seed picks one program from each, so every
seed compiles a mix of the same shape and the spread between seeds
measures the host and the program, not the luck of the draw.
"""

from __future__ import annotations

import time

import layers
from common import (
    OUT,
    PIPELINE_BUILDS,
    SETUP_REPEATS,
    BackgroundHostSpeed,
    HostSpeed,
    Result,
    fig17_programs,
    load_pool,
    median,
    more_passes,
    peak_rss_mib,
    percentile,
    rng_for,
    tail,
    timed_setup,
)

#: Generated programs per pass.  With the five Figure-17 programs a pass
#: takes 6.5-9 s on a 2-core x86 box, so a 20 s run makes two or three
#: passes, 450-675 builds: enough for a p95 with 22 samples beyond it.
DRAW = 40


def _setup(seed: int):
    """Load the frozen inputs, draw the mix and parse every program once.

    The parse is a warm-up: imports and first-call costs land here, not
    in the first timed build, and a frozen input that no longer parses
    stops the run before anything is timed.
    """
    from repro import CompileConfig, Session

    pool = sorted(load_pool(), key=lambda entry: (len(entry["source"]), entry["seed"]))
    programs = [(name, source, expected, False) for name, source, expected in fig17_programs()]
    draw = rng_for(seed, "compile-draw")
    for stratum in range(DRAW):
        entry = pool[draw.randrange(stratum * len(pool) // DRAW, (stratum + 1) * len(pool) // DRAW)]
        programs.append((f"gen{entry['seed']}", entry["source"], entry["expected"], True))
    rng_for(seed, "compile-order").shuffle(programs)
    for name, source, *_ in programs:
        Session(source, path=f"{name}.icc").compile()
    configs = [(build, CompileConfig.for_build(build)) for build in PIPELINE_BUILDS]
    return programs, configs


def _one_pass(programs, configs, result: Result, reports: list | None = None):
    """Compile every program in every build.

    Returns ``[(start, end, cpu seconds, program index, build)]`` and the ``inline``
    builds as ``[(program index, IR program)]``.  Reports are dropped as
    soon as they are made, unless ``reports`` collects them, so the pass
    holds one program's reports at a time.
    """
    from repro import Session

    samples = []
    inline_builds = []
    for index, (name, source, expected, _generated) in enumerate(programs):
        session = Session(source, path=f"{name}.icc")
        for build, config in configs:
            result.attempted += 1
            started = time.perf_counter()
            cpu_started = time.thread_time()
            try:
                report = session.optimize(config)
            except Exception as error:  # noqa: BLE001 - a raising build is a failed operation
                result.fail(f"{name}/{build}: {type(error).__name__}: {error}")
                continue
            cpu = time.thread_time() - cpu_started
            samples.append((started, time.perf_counter(), cpu, index, build))
            if expected is None:
                result.fail(f"{name}/{build}: source differs from the frozen Figure-17 program")
            if build == "inline":
                inline_builds.append((index, report.program))
            if reports is not None:
                reports.append(report)
    return samples, inline_builds


def _check(programs, inline_builds, result: Result) -> None:
    """Run each generated program's ``inline`` builds; compare with the frozen output."""
    import repro.runtime as runtime

    for index, program in inline_builds:
        name, _source, expected, generated = programs[index]
        if not generated:
            continue
        try:
            output = list(runtime.run_program(program).output)
        except Exception as error:  # noqa: BLE001 - a crashing build is a failed operation
            result.fail(f"{name}/inline: run raised {type(error).__name__}: {error}")
            continue
        if output != expected:
            result.fail(f"{name}/inline: output {output!r} != expected {expected!r}")


def run(seed: int, seconds: float, trace: bool) -> Result:
    from repro.codegen import code_size

    result = Result()
    host = HostSpeed()
    samples = []
    passes = []
    code_bytes = 0
    with BackgroundHostSpeed(host):
        (programs, configs), setup_windows = timed_setup(
            lambda _previous: _setup(seed), 1 if trace else SETUP_REPEATS
        )
        while more_passes([end - start for start, end in passes], seconds):
            pass_started = time.perf_counter()
            pass_samples, inline_builds = _one_pass(programs, configs, result)
            passes.append((pass_started, time.perf_counter()))
            samples.extend(pass_samples)
            if len(passes) == 1:
                code_bytes = sum(code_size(program) for _, program in inline_builds)
            # Checked after each pass, outside its timer, so a run holds one
            # pass's programs whatever its length.
            _check(programs, inline_builds, result)
    if not samples:
        return result

    times = [(end - start) * 1e3 for start, end, *_ in samples]
    normal = [host.normalise(cpu, start, end) * 1e3 for start, end, cpu, *_ in samples]
    pass_seconds = [end - start for start, end in passes]
    tail_label, tail_ms = tail(normal)
    setup_s = median([end - start for start, end in setup_windows])
    result.e2e = {
        "op_p50_ms": median(normal),
        "op_tail_ms": tail_ms,
        "work_per_s": len(samples) / (sum(normal) / 1e3),
        "setup_s": host.median_seconds(setup_windows),
        "peak_rss_mb": peak_rss_mib(),
    }
    result.say(f"passes {len(passes)}, builds {len(samples)}, tail statistic {tail_label}")
    result.say(f"host factor {host.overall():.4f} over {len(host.samples)} samples; "
               f"raw setup {setup_s:.3f} s; report lines are raw")
    result.say(f"compile_ms_p50        {median(times):.3f} ms")
    result.say(f"compile_ms_p90        {percentile(times, 90):.3f} ms")
    result.say(f"compile_builds_per_s  {len(samples) / sum(pass_seconds):.3f} builds/s")
    result.say(f"code_bytes            {code_bytes} bytes (inline builds, deterministic)")
    fig17 = [ms for ms, (*_, index, _) in zip(times, samples) if not programs[index][3]]
    generated = [ms for ms, (*_, index, _) in zip(times, samples) if programs[index][3]]
    if fig17:
        result.say(f"  figure-17 builds     {len(fig17)}, median {median(fig17):.1f} ms")
    if generated:
        result.say(f"  generated builds     {len(generated)}, median {median(generated):.1f} ms")

    if trace:
        result.layers = _traced_pass(programs, configs, pass_seconds[0], seed, result)
    return result


def _traced_pass(programs, configs, untraced_pass_s: float, seed: int, result: Result):
    recorder = layers.SpanRecorder()
    with layers.LayerProbe(recorder):
        t0 = time.perf_counter()
        reports = []
        _samples, inline_builds = _one_pass(programs, configs, result, reports)
        t1 = time.perf_counter()
    _check(programs, inline_builds, result)
    metrics = layers.timed_layers(recorder, t0, t1)
    metrics.update(layers.report_counts(reports))
    metrics["bench.trace_overhead"] = (t1 - t0) / untraced_pass_s
    recorder.write_chrome(OUT / f"trace-compile-mix-{seed}.json", t0)
    return metrics

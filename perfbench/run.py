"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload vm-fig17 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run it from the root of a checkout: it imports the package under test
from ``src/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run measures the workload
untraced, repeats it with every layer wrapped in timers, and reports the
per-layer metrics instead (the span file goes to ``.perfbench_out/``).
The lines before it are a human-readable report, including the
deterministic counts a VM-only change must leave equal.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time

from common import OUT, ROOT, BenchError

WORKLOADS = ("vm-fig17", "compile-mix", "svc-mixed")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package under test at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro  # noqa: F401


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    if name == "vm-fig17":
        import vm_fig17 as module
    elif name == "compile-mix":
        import compile_mix as module
    else:
        import svc_mixed as module
    return module.run(seed, seconds, trace)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Let SIGTERM unwind like an exception, so the ``finally`` blocks
    # that stop the daemon and the sampler still run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.workload == "all":
        return _run_all(args)

    try:
        _import_program()
    except (BenchError, ImportError) as error:
        print(f"error: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"wall {time.perf_counter() - started:.1f} s")
    for line in result.lines:
        print(line)
    for failure in result.failures:
        print(f"FAILED: {failure}")
    if not result.e2e:
        print("error: no operation succeeded; nothing was measured", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {
            m["name"]: {"value": float(result.layers.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result.e2e[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:{width}s}  {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, check=False)
        status = status or completed.returncode
    return status


if __name__ == "__main__":
    raise SystemExit(main())

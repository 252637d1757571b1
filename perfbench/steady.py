"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steady.py --runs 10                  # every workload
    python3 perfbench/steady.py --workload svc-mixed --runs 5 --first-seed 100

Each run is ``run.py --workload W --seed S --trace 0`` with a new seed
and the ``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles``,
n=4), and the spread -- the interquartile distance as a share of the
median -- next to the metric's bound.  A spread at or above a third of
the bound is flagged ``WIDE``: the benchmark is not steady enough for
that metric on that workload.  Runs go one at a time, so they never
compete with each other for the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n"
                         f"{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to check (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    wide = 0
    for workload in args.workload or names:
        results = []
        for offset in range(args.runs):
            seed = args.first_seed + offset
            started = time.perf_counter()
            result = run_once(workload, seed, spec["run_seconds"])
            wall = time.perf_counter() - started
            results.append(result)
            shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s  {shown}",
                  flush=True)
        print(f"\n{workload}: {args.runs} runs")
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3, share = spread(values)
            flag = "WIDE" if share >= metric["bound"] / 3 else "ok"
            if metric["name"] == "setup_s":
                flag += " (spread not gated)"
            elif flag == "WIDE":
                wide += 1
            print(f"  {metric['name']:14s} {q2:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{share:8.4f} {metric['bound']:6.2f}  {flag}")
        failed = sum(r["failed"] for r in results)
        print(f"  failed operations: {failed}\n", flush=True)
    return 1 if wide else 0


if __name__ == "__main__":
    raise SystemExit(main())

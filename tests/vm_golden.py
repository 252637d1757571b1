"""The VM's frozen semantic contract: the golden file and its recorder.

``tests/data/vm_stats_golden.json`` pins what the VM observably does —
printed output and every ``ExecutionStats.summary()`` counter — on

- every Figure-17 (program, build) of the serial performance suite,
- the ``plain``/``inline``/``opt`` builds of fuzz-generator seeds 0-63,
- the per-callable ``self_instructions`` of ``profile_program`` on the
  ``inline`` build of silo,
- the ``StepLimitExceeded`` message, and the instruction count at the
  raise, of ``STEP_LIMIT_SOURCE`` run under every budget below its
  length (the budget runs out in callers, callees and a constructor,
  mid-block and at terminators).

Every other Figure-17 check compares two runs of the *same* VM (serial
vs parallel, escape on vs off), so a VM change that shifts a counter
consistently would pass them all; ``test_vm_golden.py`` compares against
this file instead.  Regenerate it only for an intended change of the
cost model or of a benchmark program::

    PYTHONPATH=src python tests/vm_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).parent / "data" / "vm_stats_golden.json"

FUZZ_SEEDS = range(64)
FUZZ_BUILDS = ("plain", "inline", "opt")
#: Per-run instruction budget; a generated program that exceeds it
#: records the limit error (message and location) instead of stats.
FUZZ_MAX_STEPS = 2_000_000
PROFILED = ("silo", "inline")

STEP_LIMIT_SOURCE = """class Acc {
  var total;
  def init(start) { this.total = start; }
  def add(v) { this.total = this.total + v; return this.total; }
}
def twice(x) { return x * 2; }
def main() {
  var acc = new Acc(1);
  var i = 0;
  while (i < 3) {
    var t = twice(i) + acc.add(i) + 1;
    i = i + 1;
  }
  print(acc.total);
}
"""


def figure17_entries(perf_runs) -> dict:
    """``{program: {"reference": output, build: {output, stats}}}``."""
    return {
        name: {
            "reference": list(run.reference_output),
            **{
                build: {
                    "output": list(result.run.output),
                    "stats": result.run.stats.summary(),
                }
                for build, result in run.builds.items()
            },
        }
        for name, run in perf_runs.items()
    }


def fuzz_entries() -> dict:
    """``{seed: {build: {output, stats} | {error}}}`` for the fuzz seeds."""
    from repro.fuzz import generate_source
    from repro.runtime import ReproRuntimeError
    from repro.session import Session

    entries = {}
    for seed in FUZZ_SEEDS:
        session = Session(generate_source(seed), path=f"<fuzz:{seed}>")
        builds = {}
        for build in FUZZ_BUILDS:
            try:
                run = session.run(build, max_steps=FUZZ_MAX_STEPS)
            except ReproRuntimeError as exc:
                builds[build] = {"error": f"{type(exc).__name__}: {exc}"}
                continue
            builds[build] = {"output": list(run.output), "stats": run.stats.summary()}
        entries[str(seed)] = builds
    return entries


def profile_entries() -> dict:
    """``{callable: self_instructions}`` of the profiled Figure-17 build."""
    from repro.bench.harness import PERFORMANCE_PROGRAMS
    from repro.runtime import profile_program
    from repro.session import Session

    name, build = PROFILED
    program = Session(PERFORMANCE_PROGRAMS[name], path=name).program_for(build)
    report = profile_program(program)
    return {
        callable_name: profile.self_instructions
        for callable_name, profile in sorted(report.profiles.items())
    }


def step_limit_entries() -> list[list]:
    """``[message, instructions at the raise]`` per budget ``0 .. length - 1``."""
    from repro.ir import compile_source
    from repro.runtime import Interpreter, StepLimitExceeded

    program = compile_source(STEP_LIMIT_SOURCE, "limits.icc")
    length = Interpreter(program).run().stats.instructions
    entries = []
    for max_steps in range(length):
        interpreter = Interpreter(program, max_steps=max_steps)
        try:
            interpreter.run()
        except StepLimitExceeded as exc:
            entries.append([str(exc), interpreter.stats.instructions])
    return entries


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def main() -> None:
    from repro.bench import run_performance_suite

    golden = {
        "figure17": figure17_entries(run_performance_suite()),
        "fuzz": fuzz_entries(),
        "profile": {"/".join(PROFILED): profile_entries()},
        "step_limits": step_limit_entries(),
    }
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

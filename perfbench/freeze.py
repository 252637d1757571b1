"""Regenerate the benchmark's frozen input data.

    python3 perfbench/freeze.py

Writes two files under ``perfbench/data``:

- ``pool.json.gz`` -- the generated-program pool of the ``compile-mix``
  and ``svc-mixed`` workloads: seed, source text and expected
  ``plain``-build output of each program.  The sources are stored, not
  regenerated at run time, so a later change to ``repro.fuzz`` cannot
  change a workload.
- ``fig17.json`` -- the expected output and the source hash of each
  Figure-17 program (``repro.bench.harness.PERFORMANCE_PROGRAMS``).  A
  run whose program text no longer hashes to the frozen value counts
  as a failed operation: it would be measuring a different program.

A seed enters the pool only if every build compiles and the ``inline``
build prints what the ``plain`` build prints, so no operation of a
workload fails at the commit the data was frozen at.  Running this
script again reproduces the committed files byte for byte as long as
``repro.fuzz.gen`` is unchanged; it is only needed to grow the pool.
"""

from __future__ import annotations

import gzip
import json
import sys

from common import DATA, PIPELINE_BUILDS, ROOT, source_hash

sys.path.insert(0, str(ROOT / "src"))

from repro import CompileConfig, Session  # noqa: E402
from repro.bench.harness import PERFORMANCE_PROGRAMS  # noqa: E402
from repro.fuzz.gen import generate_source  # noqa: E402

#: Large enough that no workload needs a program twice in one run
#: (svc-mixed draws one distinct program per cold request).
POOL_SIZE = 256


def _pool_entry(seed: int) -> dict | None:
    source = generate_source(seed)
    session = Session(source, path=f"gen{seed}.icc")
    expected = list(session.run("plain").output)
    for build in PIPELINE_BUILDS:
        session.optimize(CompileConfig.for_build(build))
    if list(session.run("inline").output) != expected:
        return None
    return {"seed": seed, "source": source, "expected": expected}


def freeze_pool() -> list[dict]:
    pool: list[dict] = []
    seed = 0
    while len(pool) < POOL_SIZE:
        try:
            entry = _pool_entry(seed)
        except Exception as error:  # noqa: BLE001 - any failure excludes the seed
            print(f"seed {seed} skipped: {type(error).__name__}: {error}", file=sys.stderr)
            entry = None
        if entry is not None:
            pool.append(entry)
        seed += 1
    return pool


def freeze_fig17() -> dict:
    frozen = {}
    for name, source in PERFORMANCE_PROGRAMS.items():
        output = Session(source, path=f"{name}.icc").run("plain").output
        frozen[name] = {"sha256": source_hash(source), "expected": list(output)}
        print(f"fig17 {name}: {len(output)} output lines", file=sys.stderr)
    return frozen


def main() -> int:
    DATA.mkdir(exist_ok=True)
    pool = freeze_pool()
    payload = json.dumps(pool, sort_keys=True, indent=0).encode("utf-8")
    # mtime=0 keeps the archive byte-identical across regenerations.
    with gzip.GzipFile(DATA / "pool.json.gz", "wb", mtime=0) as handle:
        handle.write(payload)
    print(f"pool: {len(pool)} programs, seeds 0..{pool[-1]['seed']}", file=sys.stderr)
    (DATA / "fig17.json").write_text(json.dumps(freeze_fig17(), sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

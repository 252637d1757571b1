"""The VM against its frozen semantic contract (``tests/data/vm_stats_golden.json``).

Output and every ``ExecutionStats.summary()`` counter must match the
golden exactly: a faster VM may not shift a single simulated cycle.  The
Figure-17 part reads the shared ``perf_runs`` session fixture, so it adds
no VM time of its own.  See ``vm_golden.py`` for how the file is made.

The VM has two tiers (decoded closures, and compiled Python functions for
hot callables), so every contract is checked again with the tier forced:
never compiled, compiled on first call, and compiled mid-loop.
"""

import pytest

from conftest import FORCED_TIERS
from repro.runtime import interp, run_program

from vm_golden import (
    figure17_entries,
    fuzz_entries,
    load_golden,
    profile_entries,
    step_limit_entries,
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_figure17_matches_golden(golden, perf_runs):
    assert figure17_entries(perf_runs) == golden["figure17"]


def test_fuzz_builds_match_golden(golden):
    actual = fuzz_entries()
    assert actual.keys() == golden["fuzz"].keys()
    for seed, builds in golden["fuzz"].items():
        assert actual[seed] == builds, f"fuzz seed {seed}"


def test_profile_self_instructions_match_golden(golden):
    (expected,) = golden["profile"].values()
    assert profile_entries() == expected


def test_step_limits_match_golden(golden):
    entries = step_limit_entries()
    assert entries == golden["step_limits"]
    # Each budget stops on the instruction one past it.
    assert [executed for _, executed in entries] == list(range(1, len(entries) + 1))


@pytest.fixture(params=list(FORCED_TIERS.values()), ids=list(FORCED_TIERS))
def forced_tier(request, monkeypatch):
    monkeypatch.setattr(interp, "TIER_UP_HEAT", request.param)


@pytest.mark.parametrize(
    "heat",
    [FORCED_TIERS["tier1-never"], FORCED_TIERS["tier1-immediately"]],
    ids=["tier1-never", "tier1-immediately"],
)
def test_figure17_matches_golden_in_forced_tier(golden, perf_runs, monkeypatch, heat):
    # Re-runs the programs the suite compiled; the compile is shared.
    monkeypatch.setattr(interp, "TIER_UP_HEAT", heat)
    for name, run in perf_runs.items():
        for build, result in run.builds.items():
            rerun = run_program(result.report.program)
            actual = {"output": list(rerun.output), "stats": rerun.stats.summary()}
            assert actual == golden["figure17"][name][build], f"{name}/{build}"


def test_fuzz_builds_match_golden_in_forced_tier(golden, forced_tier):
    assert fuzz_entries() == golden["fuzz"]


def test_profile_self_instructions_match_golden_in_forced_tier(golden, forced_tier):
    (expected,) = golden["profile"].values()
    assert profile_entries() == expected


def test_step_limits_match_golden_in_forced_tier(golden, forced_tier):
    assert step_limit_entries() == golden["step_limits"]

"""The VM against its frozen semantic contract (``tests/data/vm_stats_golden.json``).

Output and every ``ExecutionStats.summary()`` counter must match the
golden exactly: a faster VM may not shift a single simulated cycle.  The
Figure-17 part reads the shared ``perf_runs`` session fixture, so it adds
no VM time of its own.  See ``vm_golden.py`` for how the file is made.
"""

import pytest

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

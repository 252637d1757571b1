"""Perf-history ledger: robust stats, entry hashing/persistence, the
statistical regression check, the ledger reports, and the CLI wiring.

The flagship differential tests pin the acceptance criteria: a
deliberately slowed phase is flagged ``regressed`` while an identical
re-run is not, serial and ``--jobs 2`` runs produce equivalent ledger
entries, and ``repro bench --repeat 3`` appends an entry with three
samples per phase.
"""

import copy
import json
import time

import pytest

from repro.bench.harness import run_suite_samples
from repro.cli import main
from repro.obs.history import (
    ABS_SLACK,
    MIN_HISTORY_SAMPLES,
    append_entry,
    check_entry,
    comparable_entries,
    config_key,
    environment,
    load_history,
    mad,
    make_entry,
    median,
    metric_series,
    regression_margin,
    render_entry_diff,
    render_history_list,
    render_trend,
    render_verdicts,
    resolve_rev,
    sparkline,
)

#: One tiny benchmark that exercises all three builds quickly.
TINY = """
class P { var v; def init(v) { this.v = v; } }
class C { var inline f; def init(p) { this.f = p; } }
def main() { var c = new C(new P(5)); print(c.f.v); }
"""

SPEC = {"tiny": (TINY, None)}


def measure(repeat=1, jobs=1, suite="test-tiny"):
    return run_suite_samples(
        repeat=repeat, jobs=jobs, specs=dict(SPEC), suite=suite
    )


def entry_of(samples, jobs=1, git_rev="deadbeef"):
    env = environment(jobs=jobs)
    env["git_rev"] = git_rev
    return make_entry(
        samples.ledger_benchmarks(),
        samples.ledger_config(),
        env,
        repeat=samples.repeat,
    )


@pytest.fixture(scope="module")
def tiny_history():
    """Two recorded runs of the tiny suite (4 samples per phase)."""
    return [entry_of(measure(repeat=2)) for _ in range(2)]


class TestRobustStats:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        with pytest.raises(ValueError):
            median([])

    def test_mad(self):
        assert mad([5.0]) == 0.0
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 9.0]) == 1.0  # deviations from 2: [1, 0, 7]

    def test_margin_never_below_absolute_slack(self):
        assert regression_margin([0.0001, 0.0001, 0.0001]) == ABS_SLACK

    def test_margin_scales_with_noise(self):
        noisy = [0.1, 0.2, 0.1, 0.3, 0.2]
        assert regression_margin(noisy) > regression_margin([0.2] * 5)


class TestLedgerEntries:
    def test_config_key_is_stable_and_order_insensitive(self):
        a = config_key({"suite": "s", "builds": ["x", "y"]})
        b = config_key({"builds": ["x", "y"], "suite": "s"})
        assert a == b and len(a) == 16

    def test_config_key_distinguishes_configs(self):
        assert config_key({"suite": "a"}) != config_key({"suite": "b"})

    def test_append_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "h.jsonl")
        entry = make_entry({"b": {}}, {"suite": "s"}, {"jobs": 1})
        append_entry(path, entry)
        append_entry(path, entry)
        loaded = load_history(path)
        assert len(loaded) == 2
        assert loaded[0]["config_key"] == entry["config_key"]

    def test_load_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "h.jsonl"
        good = json.dumps(make_entry({"b": {}}, {"suite": "s"}, {}))
        path.write_text(f"not json\n{good}\n[1,2]\n\n")
        assert len(load_history(str(path))) == 1

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_history(str(tmp_path / "absent.jsonl")) == []

    def test_comparable_entries_filter_key_and_jobs(self):
        e1 = make_entry({}, {"suite": "a"}, {"jobs": 1})
        e2 = make_entry({}, {"suite": "a"}, {"jobs": 2})
        e3 = make_entry({}, {"suite": "b"}, {"jobs": 1})
        entries = [e1, e2, e3]
        key = e1["config_key"]
        assert comparable_entries(entries, key) == [e1, e2]
        assert comparable_entries(entries, key, jobs=1) == [e1]


class TestStatisticalCheck:
    def test_identical_rerun_is_not_flagged(self, tiny_history):
        fresh = entry_of(measure(repeat=2))
        verdicts = check_entry(fresh, tiny_history)
        assert verdicts, "expected phase verdicts"
        assert not any(v.failed for v in verdicts)
        gated = [v for v in verdicts if v.gates and v.source == "history"]
        assert gated, "expected statistically gated phases"

    def test_slowed_phase_is_flagged_regressed(self, tiny_history):
        # A measured entry is its own history, so every phase sits exactly
        # on the history median; only opt.loadcse is then pushed far past
        # the median + MAD margin.  This tests the verdict logic without
        # depending on how loaded the machine is.
        measured = tiny_history[0]
        history = [measured, measured]
        slowed = copy.deepcopy(measured)
        for builds in slowed["benchmarks"].values():
            for data in builds.values():
                samples = data["phases"]["opt.loadcse"]
                far = median(samples) + 10 * regression_margin(samples + samples)
                data["phases"]["opt.loadcse"] = [far + s for s in samples]
        verdicts = check_entry(slowed, history)
        failed = [v for v in verdicts if v.failed]
        assert failed, "slowed opt.loadcse should regress"
        assert all(v.metric == "opt.loadcse" for v in failed)
        # The verdict quotes the measured distribution and the margin.
        text = render_verdicts(verdicts)
        assert "REGRESSED" in text and "MAD" in text and "margin" in text

    def test_cycle_changes_inform_but_never_gate(self, tiny_history):
        fresh = entry_of(measure(repeat=1))
        for builds in fresh["benchmarks"].values():
            for data in builds.values():
                data["cycles"] = [c + 1000 for c in data["cycles"]]
        verdicts = check_entry(fresh, tiny_history)
        cycle_verdicts = [v for v in verdicts if v.metric == "cycles"]
        assert cycle_verdicts
        assert all(v.verdict == "regressed" for v in cycle_verdicts)
        assert not any(v.failed for v in verdicts)
        assert "informational" in render_verdicts(verdicts)

    def test_unknown_config_has_no_history(self, tiny_history):
        fresh = entry_of(measure(repeat=1, suite="different-suite"))
        verdicts = check_entry(fresh, tiny_history)
        gated = [v for v in verdicts if v.gates]
        assert gated
        assert all(v.verdict == "no-history" for v in gated)
        assert not any(v.failed for v in verdicts)

    def test_jobs_mode_pools_separately(self, tiny_history):
        # Same config hash, different --jobs: wall-time noise must not
        # pool across modes, so the parallel entry sees no history.
        fresh = entry_of(measure(repeat=1), jobs=2)
        verdicts = check_entry(fresh, tiny_history)
        gated = [v for v in verdicts if v.gates]
        assert all(v.source != "history" for v in gated)

    def test_thin_history_falls_back_to_baseline(self):
        samples = measure(repeat=1)
        fresh = entry_of(samples)
        phases = {
            bench: {
                build: {
                    phase: values[0]
                    for phase, values in data["phases"].items()
                }
                for build, data in builds.items()
            }
            for bench, builds in fresh["benchmarks"].items()
        }
        baseline = {"tolerance": 0.3, "min_seconds": 0.01, "phases": phases}
        verdicts = check_entry(fresh, [], baseline=baseline)
        fallback = [v for v in verdicts if v.source == "baseline"]
        assert fallback, "thin history should gate via the baseline"
        assert not any(v.failed for v in verdicts)
        # A grossly regressed phase still fails through the fallback.
        bad = {
            "tolerance": 0.3,
            "min_seconds": 1e-9,
            "noise_floor": 1e-9,
            "phases": {
                bench: {
                    build: {phase: 1e-9 for phase in data}
                    for build, data in builds.items()
                }
                for bench, builds in phases.items()
            },
        }
        verdicts = check_entry(fresh, [], baseline=bad)
        assert any(v.failed and v.source == "baseline" for v in verdicts)
        assert "compat gate" in render_verdicts(verdicts)

    def test_min_samples_threshold_respected(self, tiny_history):
        fresh = entry_of(measure(repeat=1))
        verdicts = check_entry(
            fresh, tiny_history, min_samples=MIN_HISTORY_SAMPLES + 100
        )
        assert all(v.source != "history" for v in verdicts if v.gates)


class TestSerialParallelEquivalence:
    def test_serial_and_jobs2_entries_are_equivalent(self):
        serial = measure(repeat=1, jobs=1)
        parallel = measure(repeat=1, jobs=2)
        # Identical measurement config -> identical content hash.
        assert serial.ledger_config() == parallel.ledger_config()
        assert (
            entry_of(serial)["config_key"] == entry_of(parallel, jobs=2)["config_key"]
        )
        # Every figure-visible quantity matches exactly.
        s_benches, p_benches = serial.ledger_benchmarks(), parallel.ledger_benchmarks()
        assert set(s_benches) == set(p_benches)
        for bench in s_benches:
            assert set(s_benches[bench]) == set(p_benches[bench])
            for build in s_benches[bench]:
                s_data, p_data = s_benches[bench][build], p_benches[bench][build]
                assert s_data["cycles"] == p_data["cycles"]
                assert s_data["code_size"] == p_data["code_size"]
                assert s_data["locality"] == p_data["locality"]


class TestLedgerReports:
    def _entries(self):
        entries = []
        for i, cycles in enumerate([100, 90, 80]):
            entry = make_entry(
                {
                    "tiny": {
                        "inline": {
                            "cycles": [cycles],
                            "phases": {"analyze": [0.01 + i * 0.001]},
                        }
                    }
                },
                {"suite": "synthetic"},
                {"git_rev": f"rev{i}cafe", "jobs": 1},
            )
            entries.append(entry)
        return entries

    def test_list_renders_rows(self):
        text = render_history_list(self._entries())
        assert "rev0cafe" in text and "rev2cafe" in text
        assert "100" in text

    def test_list_empty_message(self):
        assert "empty" in render_history_list([])

    def test_resolve_rev_by_index_and_prefix(self):
        entries = self._entries()
        assert resolve_rev(entries, "0") is entries[0]
        assert resolve_rev(entries, "-1") is entries[-1]
        assert resolve_rev(entries, "rev1") is entries[1]
        with pytest.raises(ValueError):
            resolve_rev(entries, "nosuchrev")
        with pytest.raises(ValueError):
            resolve_rev(entries, "99")
        with pytest.raises(ValueError):
            resolve_rev([], "0")

    def test_resolve_rev_prefix_picks_latest(self):
        entries = self._entries()
        twin = dict(entries[0])
        twin["env"] = {"git_rev": "rev0cafe", "jobs": 1}
        entries.append(twin)
        assert resolve_rev(entries, "rev0") is twin

    def test_diff_reports_cycles_and_movers(self):
        entries = self._entries()
        text = render_entry_diff(entries[0], entries[-1])
        assert "100" in text and "80" in text
        assert "improved" in text
        assert "0.800" in text  # the ratio column
        # analyze moved 0.010 -> 0.012 (+20% >= threshold) but only 2ms
        # in absolute terms, which the 1ms absolute filter lets through.
        assert "analyze" in text

    def test_diff_handles_missing_pairs(self):
        entries = self._entries()
        lonely = make_entry(
            {"other": {"inline": {"cycles": [5], "phases": {}}}},
            {"suite": "synthetic"},
            {"git_rev": "aaa", "jobs": 1},
        )
        text = render_entry_diff(entries[0], lonely)
        assert "missing from diff" in text and "missing from base" in text

    def test_sparkline_spans_shades(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == "▁▁"

    def test_metric_series_and_trend(self):
        entries = self._entries()
        assert metric_series(entries, "tiny", "inline", "cycles") == [100, 90, 80]
        assert metric_series(entries, "tiny", "inline", "analyze") == [
            0.01,
            0.011,
            0.012,
        ]
        text = render_trend(entries, "cycles")
        assert "tiny" in text and "▁" in text and "█" in text
        assert "latest 80" in text

    def test_trend_unknown_metric_mentions_options(self):
        text = render_trend(self._entries(), "bogus")
        assert "no data" in text and "cycles" in text

    def test_trend_empty_history(self):
        assert "empty" in render_trend([], "cycles")


class TestBenchCLI:
    @pytest.fixture(autouse=True)
    def _tiny_suite(self, monkeypatch):
        """Point the CLI's performance suite at the tiny benchmark."""
        monkeypatch.setattr(
            "repro.bench.harness.PERFORMANCE_PROGRAMS", {"tiny": TINY}
        )

    def test_bench_repeat_appends_ledger_entry(self, tmp_path, capsys):
        history = str(tmp_path / "hist.jsonl")
        assert (
            main(
                [
                    "bench",
                    "--figure",
                    "17",
                    "--repeat",
                    "3",
                    "--history",
                    history,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "recorded ledger entry #0" in out
        entries = load_history(history)
        assert len(entries) == 1
        assert entries[0]["repeat"] == 3
        inline = entries[0]["benchmarks"]["tiny"]["inline"]
        assert len(inline["cycles"]) == 3
        assert all(len(v) == 3 for v in inline["phases"].values())

    def test_bench_check_gates_and_records(self, tmp_path, capsys, monkeypatch):
        history = str(tmp_path / "hist.jsonl")
        baseline = str(tmp_path / "absent-baseline.json")
        argv = [
            "bench",
            "--check",
            "--repeat",
            "2",
            "--history",
            history,
            "--baseline",
            baseline,
        ]
        # Two recording runs build the history; both pass (no history,
        # then statistics where enough samples pooled).
        assert main(argv) == 0
        assert main(argv) == 0
        capsys.readouterr()
        assert len(load_history(history)) == 2

        # Identical code re-run: still passing.
        assert main(argv) == 0
        assert "0 regressed" in capsys.readouterr().out
        assert len(load_history(history)) == 3

        # Deliberately slowed phase: flagged, nonzero exit, not recorded.
        from repro.opt.loadcse import eliminate_redundant_loads

        def slow_pass(program):
            time.sleep(0.03)
            return eliminate_redundant_loads(program)

        monkeypatch.setattr(
            "repro.inlining.pipeline.eliminate_redundant_loads", slow_pass
        )
        assert main(argv + ["--no-record"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "opt.loadcse" in out
        assert len(load_history(history)) == 3

    def test_perf_record_and_reports(self, tmp_path, capsys):
        history = str(tmp_path / "hist.jsonl")
        assert (
            main(["perf", "record", "--repeat", "1", "--history", history]) == 0
        )
        capsys.readouterr()
        assert main(["perf", "list", "--history", history]) == 0
        assert "recorded at" in capsys.readouterr().out
        assert main(["perf", "diff", "0", "-1", "--history", history]) == 0
        out = capsys.readouterr().out
        assert "perf diff" in out and "tiny" in out
        assert main(["perf", "trend", "cycles", "--history", history]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_perf_diff_bad_rev_fails_cleanly(self, tmp_path, capsys):
        history = str(tmp_path / "hist.jsonl")
        assert main(["perf", "diff", "0", "1", "--history", history]) == 2
        assert "empty" in capsys.readouterr().err

    def test_perf_list_empty_ledger(self, tmp_path, capsys):
        history = str(tmp_path / "hist.jsonl")
        assert main(["perf", "list", "--history", history]) == 0
        assert "empty" in capsys.readouterr().out

"""The :class:`repro.Session` facade and the rules of the bench perf gate."""

import json
from types import SimpleNamespace

import pytest

import repro
from repro import CompileConfig, Session, SessionPool
from repro.analysis import AnalysisConfig
from repro.ir import compile_source
from repro.runtime import run_program
from repro.obs.history import (
    NOISE_FLOOR_SECONDS,
    append_entry,
    check_entry,
    load_history,
    make_entry,
    render_verdicts,
)
from repro.cli import main

SOURCE = """
class P { var v; def init(v) { this.v = v; } }
class C { var f; def init(p) { this.f = p; } }
def main() { var c = new C(new P(5)); print(c.f.v); }
"""


class TestSession:
    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            Session()
        with pytest.raises(ValueError):
            Session(SOURCE, program=compile_source(SOURCE))

    def test_compile_is_cached(self):
        session = Session(SOURCE)
        assert session.compile() is session.compile()

    def test_analyze_is_cached(self):
        session = Session(SOURCE)
        assert session.analyze() is session.analyze()

    def test_optimize_memoizes_per_option_set(self):
        session = Session(SOURCE)
        inline = session.optimize(inline=True)
        assert session.optimize(inline=True) is inline
        assert session.optimize(inline=False) is not inline

    def test_analyze_and_optimize_share_the_fixpoint(self):
        session = Session(SOURCE)
        result = session.analyze()
        report = session.optimize(inline=True)
        assert report.analysis is result
        assert session.analysis_cache.hits >= 1

    def test_builds_share_the_fixpoint(self):
        session = Session(SOURCE)
        inline = session.optimize(inline=True)
        manual = session.optimize(manual_only=True)
        assert manual.analysis is inline.analysis

    def test_program_for_builds(self):
        session = Session(SOURCE)
        assert session.program_for("plain") is session.compile()
        assert session.program_for("inline") is not session.compile()
        with pytest.raises(KeyError):
            session.program_for("bogus")

    def test_run_matches_primitive_api(self):
        from repro.inlining.pipeline import optimize as optimize_ir

        session = Session(SOURCE)
        program = compile_source(SOURCE)
        assert session.run("plain").output == run_program(program).output
        classic = run_program(optimize_ir(program, inline=True).program)
        assert session.run("inline").output == classic.output

    def test_config_threads_through(self):
        config = AnalysisConfig(max_local_passes=29)
        session = Session(SOURCE, config=config)
        assert session.analyze().config is config
        assert session.optimize(inline=True).analysis.config is config

    def test_per_call_tracer_override(self):
        from repro.obs import MemorySink, Tracer

        session = Session(SOURCE)
        tracer = Tracer(MemorySink())
        report = session.optimize(tracer=tracer, inline=True)
        assert "analyze" in tracer.span_totals
        assert "transform" in tracer.span_totals
        # Memoized per option set regardless of the tracer used.
        assert session.optimize(inline=True) is report
        run = session.run("inline", tracer=tracer)
        assert run.output and tracer.span_totals["run"][0] == 1


class TestCompileConfig:
    def test_frozen_and_hashable(self):
        config = CompileConfig()
        with pytest.raises(AttributeError):
            config.inline = False
        assert hash(config) == hash(CompileConfig())

    def test_content_key_is_canonical(self):
        assert CompileConfig().content_key() == CompileConfig().content_key()
        assert (
            CompileConfig(inline=False).content_key()
            != CompileConfig().content_key()
        )
        # Explicit analysis defaults hash like resolved implicit ones.
        assert (
            CompileConfig().resolved().content_key()
            == CompileConfig(analysis=AnalysisConfig()).content_key()
        )

    def test_content_key_matches_ledger_hashing(self):
        from repro.obs.history import config_key

        config = CompileConfig(max_rounds=2)
        assert config.content_key() == config_key(config.to_dict())

    def test_for_build(self):
        assert CompileConfig.for_build("noinline").inline is False
        assert CompileConfig.for_build("manual").manual_only is True
        custom = AnalysisConfig(max_local_passes=3)
        assert CompileConfig.for_build("inline", custom).analysis is custom
        with pytest.raises(ValueError):
            CompileConfig.for_build("plain")

    def test_escape_pass_participates_in_the_content_key(self):
        noescape = CompileConfig.for_build("noescape")
        assert noescape.inline is True and noescape.escape_pass is False
        assert noescape.content_key() != CompileConfig(inline=True).content_key()
        assert "escape_pass" in CompileConfig().to_dict()

    def test_explicit_config_and_kwargs_share_the_memo(self):
        session = Session(SOURCE)
        via_config = session.optimize(CompileConfig(inline=True))
        via_kwargs = session.optimize(inline=True)
        assert via_config is via_kwargs
        with pytest.raises(TypeError):
            session.optimize(CompileConfig(), inline=True)

    def test_session_analysis_config_resolves_into_key(self):
        custom = AnalysisConfig(max_local_passes=29)
        session = Session(SOURCE, config=custom)
        report = session.optimize(CompileConfig())
        assert report.analysis.config is custom


class TestSessionPool:
    def test_repeat_source_reuses_the_session(self):
        pool = SessionPool()
        first = pool.session(SOURCE)
        assert pool.session(SOURCE) is first
        assert (pool.hits, pool.misses) == (1, 1)

    def test_tenants_are_isolated(self):
        pool = SessionPool()
        assert pool.session(SOURCE, tenant="a") is not pool.session(SOURCE, tenant="b")

    def test_lru_bound_evicts(self):
        pool = SessionPool(max_sessions=2)
        a = pool.session("def main() { print(1); }")
        pool.session("def main() { print(2); }")
        pool.session("def main() { print(3); }")
        assert len(pool) == 2
        assert pool.evictions == 1
        assert pool.session("def main() { print(1); }") is not a  # evicted

    def test_tenant_tracer_lanes_merge_on_close(self):
        from repro.obs import MemorySink, Tracer

        tracer = Tracer(MemorySink())
        pool = SessionPool(tracer=tracer)
        pool.session(SOURCE, tenant="ci").optimize()
        pool.session(SOURCE, tenant="dev").optimize()
        assert pool.stats()["tenants"] == 2
        pool.close()
        assert tracer.span_totals.get("analyze", (0,))[0] >= 2

    def test_stats_shape(self):
        stats = SessionPool().stats()
        assert set(stats) == {
            "sessions", "tenants", "max_sessions", "hits", "misses", "evictions",
        }


class TestClassicWrappers:
    def test_top_level_exports(self):
        for name in ("Session", "SessionPool", "CompileConfig", "AnalysisCache",
                     "source_key"):
            assert name in repro.__all__
            assert hasattr(repro, name)
        # The deprecated one-shot shims are gone; Session is the front door.
        for name in ("compile_source", "analyze", "optimize", "run_program"):
            assert name not in repro.__all__
            assert not hasattr(repro, name)


def _entry(analyze_s=0.100, transform_s=0.050, builds=("inline",), repeat=1):
    """A ledger entry of one stub benchmark, ``repeat`` samples per phase.

    Every stub entry shares one config key and ``--jobs`` mode, so stub
    entries always pool with each other.
    """
    phases = {"analyze": [analyze_s] * repeat, "transform": [transform_s] * repeat}
    return make_entry(
        {"bench": {build: {"phases": dict(phases)} for build in builds}},
        {"suite": "stub"},
        {"jobs": 1},
        repeat=repeat,
    )


def _check(measured, **history_kwargs):
    """Verdicts of ``measured`` against a three-sample stub history."""
    return check_entry(measured, [_entry(repeat=3, **history_kwargs)])


def _failures(verdicts):
    return [v.describe() for v in verdicts if v.failed]


def _verdict(verdicts, metric):
    (found,) = [v for v in verdicts if v.metric == metric]
    return found.verdict


class TestBaselineGate:
    """The gate's rules against the newest comparable ledger entry: the
    median + margin test, the absolute noise floor, and drift."""

    def test_roundtrip_and_pass(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        for _ in range(3):
            append_entry(path, _entry())
        verdicts = check_entry(_entry(), load_history(path))
        assert _failures(verdicts) == []
        assert {v.verdict for v in verdicts} == {"pass"}

    def test_regression_beyond_tolerance_fails(self):
        failures = _failures(_check(_entry(analyze_s=0.140), analyze_s=0.100))
        assert len(failures) == 1
        assert "bench/inline/analyze" in failures[0]

    def test_growth_within_tolerance_passes(self):
        verdicts = _check(_entry(analyze_s=0.120), analyze_s=0.100)
        assert _failures(verdicts) == []

    def test_small_baseline_has_jitter_headroom(self):
        # A millisecond phase may jitter within the absolute slack ...
        verdicts = _check(_entry(transform_s=0.004), transform_s=0.002)
        assert _verdict(verdicts, "transform") == "pass"

    def test_small_baseline_still_gates_blowup(self):
        # ... but a blowup to hundreds of ms is a regression, not noise.
        failures = _failures(_check(_entry(transform_s=0.500), transform_s=0.005))
        assert len(failures) == 1
        assert "bench/inline/transform" in failures[0]

    def test_growth_below_noise_floor_passes(self):
        # Far beyond the margin but under the absolute noise floor.
        measured = _entry(transform_s=NOISE_FLOOR_SECONDS * 0.6)
        verdicts = _check(measured, transform_s=0.002)
        assert _failures(verdicts) == []
        assert _verdict(verdicts, "transform") == "pass"

    def test_missing_benchmark_is_drift_failure(self):
        # A vanished benchmark must not pass silently forever.
        measured = _entry()
        measured["benchmarks"] = {}
        failures = _failures(_check(measured))
        assert len(failures) == 1
        assert failures[0].startswith("bench: benchmark missing")
        assert "repro perf record" in failures[0]

    def test_missing_build_is_drift_failure(self):
        verdicts = _check(_entry(), builds=("inline", "manual"))
        failures = _failures(verdicts)
        assert len(failures) == 1
        assert failures[0].startswith("bench/manual: build missing")
        assert "repro perf record" in failures[0]
        text = render_verdicts(verdicts)
        assert "1 missing" in text and "MISSING" in text

    def test_missing_phase_is_drift_failure(self):
        # e.g. a span rename: the old name would simply stop being compared.
        measured = _entry()
        del measured["benchmarks"]["bench"]["inline"]["phases"]["transform"]
        failures = _failures(_check(measured))
        assert len(failures) == 1
        assert failures[0].startswith("bench/inline/transform: phase missing")
        assert "repro perf record" in failures[0]

    def test_new_unbaselined_phase_ignored(self):
        measured = _entry()
        measured["benchmarks"]["bench"]["inline"]["phases"]["brand.new"] = [9.9]
        verdicts = _check(measured)
        assert _failures(verdicts) == []
        assert _verdict(verdicts, "brand.new") == "no-history"


class TestCLIBaselineFlags:
    """``repro perf record`` arms the gate; ``repro bench --check`` runs it."""

    @pytest.fixture()
    def patched_suite(self, monkeypatch):
        state = {"analyze_s": 0.100}

        def stub_samples(repeat=1, **_kwargs):
            benchmarks = _entry(analyze_s=state["analyze_s"], repeat=repeat)["benchmarks"]
            return SimpleNamespace(
                ledger_benchmarks=lambda: benchmarks,
                ledger_config=lambda: {"suite": "stub"},
            )

        monkeypatch.setattr("repro.cli.run_suite_samples", stub_samples)
        return state

    def test_update_then_check(self, patched_suite, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        assert main(["perf", "record", "--repeat", "3", "--history", path]) == 0
        capsys.readouterr()
        assert main(["bench", "--check", "--no-record", "--history", path]) == 0
        out = capsys.readouterr().out
        assert "0 regressed" in out and "passed ungated" not in out

    def test_check_fails_on_regression(self, patched_suite, tmp_path, capsys):
        path = str(tmp_path / "hist.jsonl")
        assert main(["perf", "record", "--repeat", "3", "--history", path]) == 0
        patched_suite["analyze_s"] = 0.200
        assert main(["bench", "--check", "--no-record", "--history", path]) == 1
        assert "REGRESSED bench/inline/analyze" in capsys.readouterr().out


class TestCLIWideningReport:
    @pytest.fixture()
    def program_file(self, tmp_path):
        path = tmp_path / "prog.icc"
        path.write_text(SOURCE)
        return str(path)

    def test_text_output_reports_widening_counters(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "widened callables: 0" in out
        assert "widened sites: 0" in out

    def test_json_output_reports_widening(self, program_file, capsys):
        assert main(["analyze", program_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis"]["widened_callables"] == 0
        assert payload["analysis"]["widened_sites"] == 0
        assert payload["widening_rejections"] == []

    def test_widening_rejections_warn_on_stderr(self, monkeypatch, program_file, capsys):
        # Force a widening-tainted rejection through the decision engine
        # so the CLI's warning path is exercised end to end.
        from repro.cli import _widening_rejections

        rejected = SimpleNamespace(
            accepted=False,
            reject_reason="container class widened (contour cap)",
            describe=lambda: "C.f",
        )
        accepted = SimpleNamespace(
            accepted=True, reject_reason=None, describe=lambda: "D.g"
        )
        report = SimpleNamespace(
            plan=SimpleNamespace(candidates={"a": rejected, "b": accepted})
        )
        assert _widening_rejections(report) == [rejected]

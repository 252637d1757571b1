"""Observability subsystem tests: spans, counters, JSONL, summaries."""

import json

import pytest

from repro.ir import compile_source
from repro.inlining.pipeline import optimize
from repro.obs import (
    JsonlSink,
    MemorySink,
    NULL_TRACER,
    Tracer,
    read_events,
    render_summary,
    summarize_events,
    summarize_file,
    tracer_to_file,
)


class FakeClock:
    """Deterministic injectable clock: advances on demand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestSpans:
    def test_nesting_parent_ids(self):
        sink = MemorySink()
        tracer = Tracer(sink, clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        begins = {e["name"]: e for e in sink.events if e["ev"] == "span_begin"}
        assert begins["outer"]["parent"] is None
        assert begins["inner"]["parent"] == begins["outer"]["id"]
        assert begins["sibling"]["parent"] == begins["outer"]["id"]
        assert begins["inner"]["id"] != begins["sibling"]["id"]

    def test_span_duration_uses_clock(self):
        clock = FakeClock()
        sink = MemorySink()
        tracer = Tracer(sink, clock=clock)
        with tracer.span("phase"):
            clock.advance(1.5)
        end = next(e for e in sink.events if e["ev"] == "span_end")
        assert end["dur"] == pytest.approx(1.5)
        assert tracer.span_totals["phase"] == [1, pytest.approx(1.5)]

    def test_span_meta_recorded(self):
        sink = MemorySink()
        tracer = Tracer(sink, clock=FakeClock())
        with tracer.span("transform", round=3):
            pass
        begin = next(e for e in sink.events if e["ev"] == "span_begin")
        assert begin["meta"] == {"round": 3}

    def test_span_totals_aggregate_repeats(self):
        clock = FakeClock()
        tracer = Tracer(None, clock=clock)
        for _ in range(4):
            with tracer.span("phase"):
                clock.advance(0.25)
        assert tracer.span_totals["phase"][0] == 4
        assert tracer.span_totals["phase"][1] == pytest.approx(1.0)


class TestCounters:
    def test_counter_accumulation(self):
        tracer = Tracer(MemorySink(), clock=FakeClock())
        tracer.count("steps")
        tracer.count("steps", 9)
        assert tracer.counters["steps"] == 10

    def test_span_end_carries_counter_deltas(self):
        sink = MemorySink()
        tracer = Tracer(sink, clock=FakeClock())
        tracer.count("steps", 5)
        with tracer.span("phase"):
            tracer.count("steps", 7)
            tracer.count("widened", 1)
        end = next(e for e in sink.events if e["ev"] == "span_end")
        assert end["counters"] == {"steps": 7, "widened": 1}

    def test_untouched_counters_omitted_from_span(self):
        sink = MemorySink()
        tracer = Tracer(sink, clock=FakeClock())
        tracer.count("before", 3)
        with tracer.span("phase"):
            pass
        end = next(e for e in sink.events if e["ev"] == "span_end")
        assert "counters" not in end

    def test_close_emits_totals_once(self):
        sink = MemorySink()
        tracer = Tracer(sink, clock=FakeClock())
        tracer.count("steps", 2)
        tracer.close()
        tracer.close()  # idempotent
        totals = [e for e in sink.events if e["ev"] == "counters"]
        assert len(totals) == 1
        assert totals[0]["counters"] == {"steps": 2}
        assert sink.closed


class TestJsonlRoundTrip:
    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = tracer_to_file(path)
        with tracer.span("optimize"):
            with tracer.span("analyze"):
                tracer.count("analysis.worklist_steps", 42)
            tracer.event("decision", candidate="C.f", accepted=True)
        tracer.close()

        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        # Every line is standalone JSON.
        events = [json.loads(line) for line in lines]
        kinds = [e["ev"] for e in events]
        assert kinds.count("span_begin") == 2
        assert kinds.count("span_end") == 2
        assert "event" in kinds and "counters" in kinds

        summary = summarize_file(path)
        assert summary.phases["analyze"].count == 1
        assert summary.counters["analysis.worklist_steps"] == 42
        assert summary.decisions == [{"candidate": "C.f", "accepted": True}]
        assert summary.malformed_lines == 0

    def test_malformed_lines_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"ev":"span_end","name":"x","dur":1.0,"id":1}\nnot json\n\n[1,2]\n'
        )
        events, malformed = read_events(str(path))
        assert len(events) == 1
        assert malformed == 2
        summary = summarize_events(events, malformed)
        assert summary.phases["x"].total_seconds == 1.0
        assert "malformed" in render_summary(summary)

    def test_sink_accepts_file_object(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            sink = JsonlSink(handle)
            sink.emit({"ev": "event", "name": "x", "ts": 0.0, "data": {}})
            sink.close()  # must not close a borrowed handle
            handle.write("")  # still open
        assert json.loads(path.read_text().strip())["name"] == "x"


class TestNullTracer:
    def test_noop_tracer_is_inert(self):
        tracer = NULL_TRACER
        assert not tracer.enabled
        with tracer.span("anything", meta=1) as span:
            tracer.count("x", 5)
            tracer.event("decision", foo="bar")
        tracer.close()
        # No state accumulated anywhere.
        assert not hasattr(tracer, "counters")
        assert span is tracer.span("other")  # the shared singleton span

    def test_default_pipeline_runs_untraced(self):
        source = """
        class P { var v; def init(v) { this.v = v; } }
        class C { var f; def init(p) { this.f = p; } }
        def main() { var c = new C(new P(5)); print(c.f.v); }
        """
        report = optimize(compile_source(source))
        assert report.program is not None  # no tracer argument required


class TestPipelineTracing:
    SOURCE = """
    class P { var v; def init(v) { this.v = v; } }
    class C { var f; def init(p) { this.f = p; } }
    def poly(o) { return o.f; }
    def main() {
      var c = new C(new P(5));
      print(c.f.v);
    }
    """

    def test_optimize_emits_phase_spans_and_decisions(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        optimize(compile_source(self.SOURCE), tracer=tracer)
        tracer.close()
        ended = {e["name"] for e in sink.events if e["ev"] == "span_end"}
        for phase in ("optimize", "analyze", "plan", "transform", "opt.dce"):
            assert phase in ended, f"missing span {phase}"
        decisions = [
            e["data"] for e in sink.events
            if e["ev"] == "event" and e["name"] == "decision"
        ]
        assert any(d["candidate"] == "C.f" and d["accepted"] for d in decisions)
        assert tracer.counters["analysis.worklist_steps"] > 0
        assert tracer.counters["decisions.accepted"] >= 1

    def test_rejections_carry_stage(self):
        report = optimize(compile_source(self.SOURCE), inline=False)
        for candidate in report.plan.rejected():
            assert candidate.reject_stage == "policy"
            record = candidate.decision_record()
            assert record["accepted"] is False
            assert record["stage"] == "policy"

    def test_decision_engine_stages_populated(self):
        # A post-construction store rejection must name its screening stage.
        source = """
        class P { var v; def init(v) { this.v = v; } }
        class C {
          var f;
          def init(p) { this.f = p; }
          def set(p) { this.f = p; }
        }
        def main() {
          var c = new C(new P(1));
          c.set(new P(2));
          print(c.f.v);
        }
        """
        report = optimize(compile_source(source))
        rejected = {c.describe(): c for c in report.plan.rejected()}
        assert "C.f" in rejected
        assert rejected["C.f"].reject_stage == "stores"


class TestTraceSummaryRender:
    def test_render_contains_phase_table_and_decisions(self):
        sink = MemorySink()
        clock = FakeClock()
        tracer = Tracer(sink, clock=clock)
        with tracer.span("optimize"):
            with tracer.span("analyze"):
                clock.advance(0.010)
            clock.advance(0.002)
        tracer.event("decision", candidate="C.f", accepted=True)
        tracer.event(
            "decision", candidate="D.g", accepted=False,
            stage="purity", reason="use site mixes inlined and raw objects",
        )
        tracer.count("analysis.worklist_steps", 99)
        tracer.close()
        summary = summarize_events(sink.events)
        assert summary.root_seconds == pytest.approx(0.012)
        text = render_summary(summary)
        assert "analyze" in text
        assert "ACCEPT C.f" in text
        assert "[purity]" in text
        assert "analysis.worklist_steps" in text

    def test_single_run_stats_render_as_block_with_ratios(self):
        events = [
            {
                "ev": "event",
                "name": "run.stats",
                "data": {"instructions": 1000, "cache_miss_rate": 0.251234, "cycles": 9000},
            }
        ]
        summary = summarize_events(events)
        assert summary.run_stats == [events[0]["data"]]
        text = render_summary(summary)
        assert "runtime stats:" in text
        # Float ratios survive — the integer counter table can't carry them.
        assert "cache_miss_rate" in text and "0.251234" in text

    def test_multiple_run_stats_render_as_table(self):
        events = [
            {
                "ev": "event",
                "name": "run.stats",
                "data": {"instructions": n, "cache_miss_rate": 0.5, "cycles": n * 3},
            }
            for n in (100, 200)
        ]
        text = render_summary(summarize_events(events))
        assert "runtime stats (2 runs):" in text
        assert "100" in text and "200" in text

    def test_locality_events_render_brief_digest(self):
        events = [
            {
                "ev": "event",
                "name": "run.locality",
                "data": {
                    "labels": [
                        {
                            "kind": "field", "class": "C", "field": "f",
                            "site": "x.icc:3", "reads": 8, "writes": 0,
                            "misses": 5, "accesses": 8, "miss_rate": 0.625,
                        }
                    ],
                    "total_labels": 1,
                    "truncated": 0,
                },
            },
            {
                "ev": "event",
                "name": "run.heatmap",
                "data": {
                    "bucket_bytes": 2048, "buckets": [], "total_buckets": 4,
                    "truncated": 0, "total_misses": 5, "total_accesses": 8,
                },
            },
        ]
        summary = summarize_events(events)
        assert summary.localities and summary.heatmaps
        text = render_summary(summary)
        assert "locality:" in text
        assert "C.f" in text
        assert "repro heatmap" in text

    def test_merge_concatenates_run_stats_and_locality(self):
        a = summarize_events(
            [{"ev": "event", "name": "run.stats", "data": {"cycles": 1}}]
        )
        b = summarize_events(
            [{"ev": "event", "name": "run.stats", "data": {"cycles": 2}}]
        )
        a.merge(b)
        assert [s["cycles"] for s in a.run_stats] == [1, 2]


class TestTracerMerge:
    def _worker_tracer(self, clock, spans=2, events=1):
        tracer = Tracer(MemorySink(), clock=clock)
        for index in range(spans):
            with tracer.span("work", unit=index):
                clock.advance(0.5)
                tracer.count("steps", 3)
        for _ in range(events):
            tracer.event("decision", candidate="C.f", accepted=True)
        return tracer

    def test_merge_preserves_totals_counters_and_events(self):
        clock = FakeClock()
        parent_sink = MemorySink()
        parent = Tracer(parent_sink, clock=clock)
        with parent.span("own"):
            clock.advance(0.25)
        children = [self._worker_tracer(clock) for _ in range(3)]
        for child in children:
            parent.merge(child)
        assert parent.span_totals["work"][0] == 6
        assert parent.span_totals["work"][1] == pytest.approx(3.0)
        assert parent.span_totals["own"] == [1, pytest.approx(0.25)]
        assert parent.counters["steps"] == 18
        decisions = [
            e for e in parent_sink.events
            if e["ev"] == "event" and e["name"] == "decision"
        ]
        assert len(decisions) == 3
        ends = [e for e in parent_sink.events if e["ev"] == "span_end"]
        assert sum(1 for e in ends if e["name"] == "work") == 6

    def test_merge_remaps_span_ids_without_collisions(self):
        clock = FakeClock()
        parent_sink = MemorySink()
        parent = Tracer(parent_sink, clock=clock)
        with parent.span("own"):
            pass
        # Two children allocate overlapping span ids independently.
        for _ in range(2):
            parent.merge(self._worker_tracer(clock))
        begin_ids = [e["id"] for e in parent_sink.events if e["ev"] == "span_begin"]
        assert len(begin_ids) == len(set(begin_ids))
        # begin/end pairing survives the remap.
        end_ids = [e["id"] for e in parent_sink.events if e["ev"] == "span_end"]
        assert sorted(begin_ids) == sorted(end_ids)

    def test_merge_preserves_parent_links_and_roots(self):
        clock = FakeClock()
        parent_sink = MemorySink()
        parent = Tracer(parent_sink, clock=clock)
        child = Tracer(MemorySink(), clock=clock)
        with child.span("outer"):
            with child.span("inner"):
                pass
        parent.merge(child)
        begins = {e["name"]: e for e in parent_sink.events if e["ev"] == "span_begin"}
        assert begins["outer"]["parent"] is None  # roots stay roots
        assert begins["inner"]["parent"] == begins["outer"]["id"]

    def test_nested_merge_remaps_ids_through_intermediate_tracer(self):
        # Worker shards merged into an intermediate child tracer which is
        # itself merged into the session parent (the shape the parallel
        # harness produces when a worker fans out again).  Span ids must
        # stay globally unique through both remap layers, and the tree
        # shape must survive intact.
        clock = FakeClock()
        parent_sink = MemorySink()
        parent = Tracer(parent_sink, clock=clock)
        with parent.span("own"):
            clock.advance(0.1)
        intermediate = Tracer(MemorySink(), clock=clock)
        with intermediate.span("stage"):
            clock.advance(0.1)
        # Shards allocate overlapping ids independently of each other,
        # of the intermediate, and of the parent.
        for _ in range(2):
            intermediate.merge(self._worker_tracer(clock))
        parent.merge(intermediate)

        begins = [e for e in parent_sink.events if e["ev"] == "span_begin"]
        begin_ids = [e["id"] for e in begins]
        assert len(begin_ids) == len(set(begin_ids))
        end_ids = [e["id"] for e in parent_sink.events if e["ev"] == "span_end"]
        assert sorted(begin_ids) == sorted(end_ids)
        # own + stage + 2 shards x 2 work spans.
        assert sum(1 for e in begins if e["name"] == "work") == 4
        # Roots stay roots through both layers and nested shard spans
        # keep pointing at a begin that exists in the merged stream.
        by_id = {e["id"]: e for e in begins}
        for event in begins:
            if event["parent"] is None:
                continue
            assert event["parent"] in by_id
        assert all(by_id[e["id"]]["parent"] is None
                   for e in begins if e["name"] in ("own", "stage", "work"))
        # Aggregates accumulated through the intermediate as well.
        assert parent.span_totals["work"][0] == 4
        assert parent.counters["steps"] == 12

    def test_nested_merge_preserves_deep_parent_links(self):
        clock = FakeClock()
        parent_sink = MemorySink()
        parent = Tracer(parent_sink, clock=clock)
        intermediate = Tracer(MemorySink(), clock=clock)
        shard = Tracer(MemorySink(), clock=clock)
        with shard.span("outer"):
            with shard.span("inner"):
                with shard.span("leaf"):
                    clock.advance(0.05)
        intermediate.merge(shard)
        parent.merge(intermediate)
        begins = {e["name"]: e for e in parent_sink.events if e["ev"] == "span_begin"}
        assert begins["outer"]["parent"] is None
        assert begins["inner"]["parent"] == begins["outer"]["id"]
        assert begins["leaf"]["parent"] == begins["inner"]["id"]

    def test_merge_drops_child_counters_event(self):
        parent_sink = MemorySink()
        parent = Tracer(parent_sink, clock=FakeClock())
        child = Tracer(MemorySink(), clock=FakeClock())
        child.count("steps", 7)
        child.close()  # emits the child's final counters event
        parent.merge(child)
        assert not [e for e in parent_sink.events if e["ev"] == "counters"]
        parent.close()
        totals = [e for e in parent_sink.events if e["ev"] == "counters"]
        assert totals and totals[0]["counters"] == {"steps": 7}

    def test_child_shares_clock_and_epoch(self):
        clock = FakeClock()
        parent = Tracer(MemorySink(), clock=clock)
        clock.advance(1.0)
        child = parent.child()
        with child.span("late"):
            clock.advance(0.5)
        begin = next(e for e in child._sink.events if e["ev"] == "span_begin")
        assert begin["ts"] == pytest.approx(1.0)  # parent epoch, not 0

    def test_child_of_aggregate_only_tracer_has_no_sink(self):
        parent = Tracer(None, clock=FakeClock())
        child = parent.child()
        with child.span("x"):
            pass
        parent.merge(child)
        assert parent.span_totals["x"][0] == 1

    def test_shard_is_picklable_and_merges(self):
        import pickle

        clock = FakeClock()
        child = self._worker_tracer(clock)
        shard = pickle.loads(pickle.dumps(child.shard()))
        parent_sink = MemorySink()
        parent = Tracer(parent_sink, clock=clock)
        parent.merge(shard)
        assert parent.span_totals["work"][0] == 2
        assert parent.counters["steps"] == 6
        assert [e for e in parent_sink.events if e["ev"] == "event"]

    def test_null_tracer_merge_and_child_are_noops(self):
        child = NULL_TRACER.child()
        assert child is NULL_TRACER
        NULL_TRACER.merge(Tracer(MemorySink()))  # must not raise


class TestSinkConcurrency:
    def test_memory_sink_concurrent_emits_are_atomic(self):
        import threading

        sink = MemorySink()
        tracers = [Tracer(sink, clock=FakeClock()) for _ in range(4)]

        def hammer(tracer):
            for index in range(500):
                tracer.event("tick", n=index)

        threads = [
            threading.Thread(target=hammer, args=(tracer,)) for tracer in tracers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(sink.events) == 4 * 500

    def test_jsonl_sink_concurrent_lines_stay_whole(self):
        import io
        import threading

        buffer = io.StringIO()
        sink = JsonlSink(buffer)

        def hammer(worker):
            for index in range(300):
                sink.emit({"ev": "event", "name": "tick", "w": worker, "n": index})

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 4 * 300
        for line in lines:
            json.loads(line)  # every line is standalone JSON

    def test_memory_sink_pickles_without_its_lock(self):
        import pickle

        sink = MemorySink()
        sink.emit({"ev": "event", "name": "x"})
        clone = pickle.loads(pickle.dumps(sink))
        assert clone.events == sink.events
        clone.emit({"ev": "event", "name": "y"})  # lock was rebuilt
        assert len(clone.events) == 2


class TestMergedSummaries:
    def test_summarize_files_merges_worker_traces(self, tmp_path):
        from repro.obs import summarize_files

        paths = []
        for worker in range(2):
            path = str(tmp_path / f"w{worker}.jsonl")
            tracer = tracer_to_file(path)
            with tracer.span("build"):
                tracer.count("steps", 5)
            tracer.event("decision", candidate=f"C{worker}.f", accepted=True)
            tracer.close()
            paths.append(path)
        summary = summarize_files(paths)
        assert summary.phases["build"].count == 2
        assert summary.counters["steps"] == 10
        assert len(summary.decisions) == 2

    def test_trace_cli_accepts_multiple_files(self, tmp_path, capsys):
        from repro.cli import main

        paths = []
        for worker in range(2):
            path = str(tmp_path / f"w{worker}.jsonl")
            tracer = tracer_to_file(path)
            with tracer.span("build"):
                pass
            tracer.close()
            paths.append(path)
        assert main(["trace", *paths]) == 0
        out = capsys.readouterr().out
        assert "build" in out


class TestCLITrace:
    PROGRAM = """
    class P { var v; def init(v) { this.v = v; } }
    class C { var f; def init(p) { this.f = p; } }
    def main() { var c = new C(new P(5)); print(c.f.v); }
    """

    @pytest.fixture()
    def program_file(self, tmp_path):
        path = tmp_path / "prog.icc"
        path.write_text(self.PROGRAM)
        return str(path)

    def test_run_trace_flag_writes_jsonl(self, program_file, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "out.jsonl")
        assert main(["run", program_file, "--inline", "--trace", trace]) == 0
        assert capsys.readouterr().out.strip() == "5"
        summary = summarize_file(trace)
        for phase in ("analyze", "plan", "transform", "run"):
            assert phase in summary.phases
        assert summary.decisions  # at least one decision event
        assert summary.counters["run.instructions"] > 0

    def test_trace_subcommand_renders_table(self, program_file, tmp_path, capsys):
        from repro.cli import main

        trace = str(tmp_path / "out.jsonl")
        main(["run", program_file, "--inline", "--trace", trace])
        capsys.readouterr()
        assert main(["trace", trace]) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "analyze" in out
        assert "decisions:" in out

    def test_analyze_json(self, program_file, capsys):
        from repro.cli import main

        assert main(["analyze", program_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["analysis"]["method_contours"] > 0
        candidates = {c["candidate"]: c for c in payload["candidates"]}
        assert candidates["C.f"]["accepted"] is True
        assert payload["clones"]["method_partitions"] >= 1

    def test_analyze_text_shows_stage(self, tmp_path, capsys):
        from repro.cli import main

        source = """
        class P { var v; def init(v) { this.v = v; } }
        class C {
          var f;
          def init(p) { this.f = p; }
          def set(p) { this.f = p; }
        }
        def main() {
          var c = new C(new P(1));
          c.set(new P(2));
          print(c.f.v);
        }
        """
        path = tmp_path / "poly.icc"
        path.write_text(source)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reject[" in out


class TestBenchPhaseTimings:
    def test_build_results_carry_phase_seconds(self):
        from repro.bench.harness import run_benchmark

        source = """
        class P { var v; def init(v) { this.v = v; } }
        class C { var f; def init(p) { this.f = p; } }
        def main() { var c = new C(new P(5)); print(c.f.v); }
        """
        bench = run_benchmark("tiny", source)
        for build in ("noinline", "inline", "manual"):
            phases = bench.builds[build].phase_seconds
            assert phases.get("analyze", 0.0) > 0.0
            assert "transform" in phases

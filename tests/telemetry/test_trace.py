"""Span tracer unit tests: no-op path, nesting, ids, sinks, adoption."""

import json
import os
import threading
import time
import tracemalloc

from repro import telemetry
from repro.telemetry import NULL_SPAN, summarize_trace


class TestDisabledFastPath:
    def test_span_returns_the_shared_singleton(self):
        assert not telemetry.tracing_enabled()
        assert telemetry.span("anything") is NULL_SPAN
        assert telemetry.span("something.else") is NULL_SPAN
        with telemetry.span("nested") as span:
            assert span is NULL_SPAN
            assert span.set("key", "value") is NULL_SPAN

    def test_noop_records_nothing(self):
        for _ in range(25):
            with telemetry.span("hot.loop"):
                pass
        assert telemetry.get_tracer().drain() == []
        assert telemetry.phase_snapshot() == {}

    def test_noop_path_allocates_nothing(self):
        import repro.telemetry as facade
        import repro.telemetry.trace as trace_mod

        with telemetry.span("warmup"):
            pass
        filters = [
            tracemalloc.Filter(True, facade.__file__),
            tracemalloc.Filter(True, trace_mod.__file__),
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(filters)
            for _ in range(500):
                with telemetry.span("hot"):
                    pass
            after = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        growth = sum(
            stat.size_diff for stat in after.compare_to(before, "filename")
        )
        assert growth == 0

    def test_metrics_helpers_are_noops_when_disabled(self):
        telemetry.count("repro_test_total", decision="sync")
        telemetry.observe("repro_test_seconds", 0.5)
        telemetry.gauge("repro_test_depth", 3)
        assert telemetry.get_metrics().families() == {}


class TestEnabledTracing:
    def test_nesting_parents_and_shared_trace_id(self):
        telemetry.configure(tracing=True)
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        names = [span["name"] for span in telemetry.get_tracer().drain()]
        assert names == ["inner", "outer"]  # finish order

    def test_sibling_roots_start_distinct_traces(self):
        telemetry.configure(tracing=True)
        with telemetry.span("first") as first:
            pass
        with telemetry.span("second") as second:
            pass
        assert first.trace_id != second.trace_id
        assert first.span_id != second.span_id

    def test_span_ids_embed_the_pid(self):
        telemetry.configure(tracing=True)
        with telemetry.span("work") as span:
            pass
        assert span.span_id.startswith(f"{os.getpid():x}-")
        assert span.trace_id.startswith(f"t{os.getpid():x}-")

    def test_attributes_and_record_shape(self):
        telemetry.configure(tracing=True)
        with telemetry.span("attrs") as span:
            span.set("rows", 8).set("tick", 3)
        (record,) = telemetry.get_tracer().drain()
        assert record["attrs"] == {"rows": 8, "tick": 3}
        assert record["pid"] == os.getpid()
        assert record["thread"] == threading.current_thread().name
        assert record["duration"] >= 0.0
        assert record["start"] > 0.0

    def test_phase_totals_accumulate_on_span_end(self):
        telemetry.configure(tracing=True)
        before = telemetry.phase_snapshot()
        with telemetry.span("phase.a"):
            time.sleep(0.002)
        with telemetry.span("phase.a"):
            pass
        with telemetry.span("phase.b"):
            pass
        delta = telemetry.phase_delta(before)
        assert set(delta) == {"phase.a", "phase.b"}
        assert delta["phase.a"] >= 0.002

    def test_thread_stacks_are_isolated(self):
        telemetry.configure(tracing=True)
        seen = {}

        def worker():
            with telemetry.span("thread.root") as span:
                seen["trace_id"] = span.trace_id
                seen["parent_id"] = span.parent_id

        with telemetry.span("main.root") as main_span:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # The worker thread's span is a new root, not a child of main's span.
        assert seen["parent_id"] is None
        assert seen["trace_id"] != main_span.trace_id


class TestSinkAndSummarize:
    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure(trace_file=path)
        assert telemetry.tracing_enabled()  # trace_file implies tracing
        with telemetry.span("work.outer"):
            with telemetry.span("work.inner"):
                time.sleep(0.002)
        assert telemetry.flush() == 2
        assert telemetry.flush() == 0  # buffer drained
        with open(path) as handle:
            spans = [json.loads(line) for line in handle]
        assert {span["name"] for span in spans} == {"work.inner", "work.outer"}

    def test_summarize_trace_shares(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure(trace_file=path)
        for _ in range(3):
            with telemetry.span("step"):
                with telemetry.span("step.sub"):
                    time.sleep(0.001)
        telemetry.flush()
        summary = summarize_trace(path)
        assert summary["span_count"] == 6
        assert summary["wall_seconds"] > 0.0
        assert summary["phases"]["step"]["count"] == 3
        assert summary["phases"]["step.sub"]["count"] == 3
        assert (
            summary["phases"]["step"]["total_seconds"]
            >= summary["phases"]["step.sub"]["total_seconds"]
        )
        assert 0.0 < summary["phases"]["step"]["share"]
        assert summary["phases"]["step"]["mean_seconds"] >= 0.001

    def test_summarize_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        summary = summarize_trace(str(path))
        assert summary == {"wall_seconds": 0.0, "span_count": 0, "phases": {}}

    def test_reset_detaches_sink_and_disables(self, tmp_path):
        telemetry.configure(trace_file=str(tmp_path / "t.jsonl"), metrics=True)
        telemetry.reset()
        assert not telemetry.tracing_enabled()
        assert not telemetry.metrics_enabled()
        assert telemetry.get_tracer().sink_path is None

    def test_env_configuration(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv("REPRO_TRACE_FILE", path)
        monkeypatch.setenv("REPRO_METRICS", "1")
        telemetry._configure_from_env()
        assert telemetry.tracing_enabled()
        assert telemetry.metrics_enabled()
        assert telemetry.get_tracer().sink_path == path

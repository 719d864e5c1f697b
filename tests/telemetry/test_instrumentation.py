"""Telemetry wired through real runs: traces, counters, phases, and the CLI.

The coverage test is the PR's acceptance criterion: a traced run's
top-level spans (setup + steps + evals) must account for >= 90% of its
wall-clock, i.e. the instrumentation actually covers the hot paths rather
than decorating a corner of them.
"""

import json
import time

import pytest

from repro import telemetry
from repro.api import RunRequest, run
from repro.harness.cli import main as cli_main
from repro.harness.experiment import run_experiment
from repro.scenarios import run_scenario
from repro.scenarios.runner import ScenarioRecord
from repro.telemetry import summarize_trace


class TestTraceCoverage:
    def test_traced_run_covers_at_least_90_percent_of_wall(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        start = time.perf_counter()
        run_experiment(
            "resnet101",
            "selsync",
            num_workers=2,
            iterations=30,
            eval_every=10,
            seed=0,
            delta=0.3,
            telemetry_file=path,
        )
        wall = time.perf_counter() - start
        telemetry.flush()
        summary = summarize_trace(path)
        phases = summary["phases"]
        for name in (
            "run.setup",
            "trainer.step",
            "trainer.eval",
            "cluster.gradients",
            "cluster.update",
            "selsync.tracker",
            "selsync.flags",
        ):
            assert name in phases, f"missing phase {name}: {sorted(phases)}"
        assert phases["trainer.step"]["count"] == 30
        # Top-level, non-overlapping phases vs the measured wall-clock.
        covered = sum(
            phases[name]["total_seconds"]
            for name in ("run.setup", "trainer.step", "trainer.eval")
        )
        assert covered >= 0.9 * wall, f"covered {covered:.3f}s of {wall:.3f}s"

    def test_coverage_holds_with_replica_shards(self, tmp_path, monkeypatch):
        # The preset transformer at N=8 runs as two row shards wherever two
        # cores and a pinnable BLAS exist (forced here for one-core hosts).
        # The shard threads open no spans: engine.forward / engine.backward
        # stay one span per step on the calling thread, under its step span.
        from repro.engine import threads

        if threads.pin_blas() is None:
            pytest.skip("no OpenBLAS this process can pin to one thread")
        monkeypatch.setattr(threads, "usable_cores", lambda: 2)
        path = str(tmp_path / "run.jsonl")
        start = time.perf_counter()
        run_experiment(
            "transformer", "selsync", num_workers=8, iterations=20, eval_every=10,
            seed=0, delta=0.25, telemetry_file=path,
        )
        wall = time.perf_counter() - start
        assert threads._pool is not None            # the steps did shard
        telemetry.flush()
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert len({span["thread"] for span in spans}) == 1
        by_id = {span["span_id"]: span for span in spans}
        for name in ("engine.forward", "engine.backward"):
            engine = [span for span in spans if span["name"] == name]
            assert len(engine) == 20
            assert {by_id[span["parent_id"]]["name"] for span in engine} == {"cluster.gradients"}
        phases = summarize_trace(path)["phases"]
        covered = sum(
            phases[name]["total_seconds"]
            for name in ("run.setup", "trainer.step", "trainer.eval")
        )
        assert covered >= 0.9 * wall, f"covered {covered:.3f}s of {wall:.3f}s"

    def test_cluster_config_telemetry_validation(self):
        from repro.cluster.cluster import ClusterConfig

        with pytest.raises(ValueError, match="telemetry"):
            ClusterConfig(num_workers=2, telemetry=123)


class TestMetricsInstrumentation:
    def test_selsync_counters_advance(self):
        telemetry.configure(metrics=True)
        run_experiment(
            "resnet101", "selsync", num_workers=2, iterations=10,
            eval_every=5, seed=0, delta=0.3,
        )
        registry = telemetry.get_metrics()
        decisions = registry.counter("repro_sync_decisions_total")
        # One sync-or-local decision per training step.
        assert decisions.total() == 10.0
        wire = registry.counter("repro_comm_wire_bytes_total")
        # The flags all-gather is charged on every step regardless of δ.
        assert wire.value(kind="flags") > 0.0

    def test_bsp_charges_sync_wire_bytes(self):
        telemetry.configure(metrics=True)
        run_experiment(
            "resnet101", "bsp", num_workers=2, iterations=4, eval_every=4, seed=0
        )
        wire = telemetry.get_metrics().counter("repro_comm_wire_bytes_total")
        assert wire.value(kind="sync") > 0.0


class TestPhasesInRecords:
    def test_scenario_record_phases_round_trip(self):
        bare = ScenarioRecord(params={}, label="x", metrics={"a": 1.0})
        assert "phases" not in bare.to_dict()
        timed = ScenarioRecord(
            params={}, label="x", metrics={}, phases={"trainer.step": 0.5}
        )
        assert timed.to_dict()["phases"] == {"trainer.step": 0.5}

    def test_experiment_kind_attaches_phases_when_tracing(self):
        telemetry.configure(tracing=True)
        out = run(RunRequest(
            kind="experiment", workload="resnet101", algorithm="bsp",
            num_workers=2, iterations=4, eval_every=2,
        ))
        assert out.records[0]["phases"]["trainer.step"] > 0.0
        assert out.meta["phases"]["trainer.step"] > 0.0
        payload = out.to_dict()
        assert payload["records"][0]["phases"] == out.records[0]["phases"]

    def test_experiment_kind_omits_phases_by_default(self):
        out = run(RunRequest(
            kind="experiment", workload="resnet101", algorithm="bsp",
            num_workers=2, iterations=4, eval_every=2,
        ))
        assert "phases" not in out.records[0]
        assert "phases" not in out.meta

    def test_sweep_records_and_meta_carry_phases(self):
        telemetry.configure(tracing=True)
        out = run(RunRequest(
            kind="sweep", workload="resnet101", grid={"delta": [0.0, 0.3]},
            num_workers=2, iterations=4, seed=0,
        ))
        assert out.meta["phases"]["trainer.step"] > 0.0
        for record in out.records:
            assert record["phases"]["trainer.step"] > 0.0

    def test_comparison_records_carry_phases(self):
        telemetry.configure(tracing=True)
        report = run_scenario("quickstart", iterations=4)
        assert all(record.phases for record in report.records)
        assert all(
            record.phases["trainer.step"] > 0.0 for record in report.records
        )


class TestTraceSummarizeCli:
    def _write_trace(self, tmp_path) -> str:
        path = str(tmp_path / "trace.jsonl")
        telemetry.configure(trace_file=path)
        for _ in range(3):
            with telemetry.span("trainer.step"):
                time.sleep(0.001)
        with telemetry.span("run.setup"):
            pass
        telemetry.flush()
        return path

    def test_summarize_renders_table(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        path = self._write_trace(tmp_path)
        json_path = str(tmp_path / "summary.json")
        assert cli_main(["trace", "summarize", path, "--json", json_path]) == 0
        out = capsys.readouterr().out
        assert "trainer.step" in out
        assert "share of wall" in out
        assert "4 spans" in out
        with open(json_path) as handle:
            payload = json.load(handle)
        assert payload["span_count"] == 4
        assert payload["phases"]["trainer.step"]["count"] == 3

    def test_summarize_missing_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        rc = cli_main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "no trace file" in capsys.readouterr().err

    def test_summarize_empty_trace(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        rc = cli_main(["trace", "summarize", str(path)])
        assert rc == 2
        assert "no spans" in capsys.readouterr().err

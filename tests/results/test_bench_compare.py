"""The unified benchmark-comparison API and its `repro bench` CLI."""

import json

import pytest

from repro.harness.cli import main as cli_main
from repro.results import ResultsStore
from repro.results.compare import (
    BENCH_KINDS,
    bench_scenario_key,
    compare_store,
    record_bench_file,
)


@pytest.fixture(autouse=True)
def no_step_summary(monkeypatch):
    """Keep test comparisons out of a real CI job summary."""
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


def engine_file(tmp_path, name, steps_per_sec):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"smoke": {"steps_per_sec": {"bsp": steps_per_sec}}}
    ))
    return path


def service_file(tmp_path, name, p99):
    path = tmp_path / name
    path.write_text(json.dumps(
        {"load": {"submit_latency_ms": {"p50": p99 / 2, "p99": p99},
                  "e2e_latency_ms": {"p50": p99, "p99": p99 * 2},
                  "jobs_per_sec": 5.0, "completed_jobs": 10,
                  "total_jobs": 10, "failures": 0}}
    ))
    return path


class TestCompareStore:
    def test_records_then_assesses_rolling_history(self, tmp_path):
        store = ResultsStore()
        for value in (100.0, 101.0, 99.0, 100.0, 100.0):
            record_bench_file(
                store, "engine", engine_file(tmp_path, f"b{value}.json", value)
            )
        # a single 30% blip: out of band, but not confirmed
        blip = engine_file(tmp_path, "blip.json", 70.0)
        markdown, failed = compare_store(store, "engine", blip)
        assert not failed
        assert "out of band (unconfirmed)" in markdown
        # the second consecutive out-of-band run confirms
        again = engine_file(tmp_path, "again.json", 70.0)
        markdown, failed = compare_store(store, "engine", again)
        assert failed
        assert "CONFIRMED REGRESSION" in markdown

    def test_fresh_store_reports_insufficient_history(self, tmp_path):
        store = ResultsStore()
        markdown, failed = compare_store(
            store, "engine", engine_file(tmp_path, "first.json", 100.0)
        )
        assert not failed
        assert "insufficient history" in markdown

    def test_no_record_leaves_the_store_untouched(self, tmp_path):
        store = ResultsStore()
        record_bench_file(store, "engine", engine_file(tmp_path, "a.json", 100.0))
        compare_store(
            store, "engine", engine_file(tmp_path, "b.json", 90.0), record=False
        )
        runs, _ = store.runs(scenario=bench_scenario_key("engine"))
        assert len(runs) == 1

    def test_service_kind_gates_lower_is_better(self, tmp_path):
        store = ResultsStore()
        for p99 in (10.0, 10.1, 9.9, 10.0, 10.0):
            record_bench_file(
                store, "service", service_file(tmp_path, f"s{p99}.json", p99)
            )
        for i in range(2):
            markdown, failed = compare_store(
                store, "service", service_file(tmp_path, f"bad{i}.json", 20.0)
            )
        assert failed

    def test_unknown_kind_raises(self, tmp_path):
        with pytest.raises(KeyError, match="unknown bench kind"):
            compare_store(ResultsStore(), "nope", engine_file(tmp_path, "x.json", 1.0))
        assert set(BENCH_KINDS) == {"engine", "scenarios", "service"}


class TestBenchCli:
    def test_two_point_compare_passes_and_fails(self, tmp_path, capsys):
        base = engine_file(tmp_path, "base.json", 100.0)
        good = engine_file(tmp_path, "good.json", 95.0)
        bad = engine_file(tmp_path, "bad.json", 50.0)
        assert cli_main(["bench", "compare", "engine", str(base), str(good)]) == 0
        assert cli_main(["bench", "compare", "engine", str(base), str(bad)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_service_two_point_compare_gates_latency(self, tmp_path, capsys):
        base = service_file(tmp_path, "base.json", 10.0)
        assert cli_main(["bench", "compare", "service", str(base), str(base)]) == 0
        out = capsys.readouterr().out
        assert "Service load" in out and "5.0 jobs/s" in out
        slow = service_file(tmp_path, "slow.json", 50.0)
        assert cli_main(["bench", "compare", "service", str(base), str(slow)]) == 1

    @pytest.mark.parametrize("kind", ["engine", "scenarios", "service"])
    def test_missing_current_file_fails_the_job(self, tmp_path, capsys, kind):
        # A benchmark step that wrote nothing must not pass as "no regression".
        base = service_file(tmp_path, "base.json", 10.0)
        missing = tmp_path / "missing.json"
        assert cli_main(["bench", "compare", kind, str(base), str(missing)]) == 1
        assert "current results missing" in capsys.readouterr().out

    def test_missing_baseline_is_reported_not_failed(self, tmp_path, capsys):
        current = service_file(tmp_path, "cur.json", 10.0)
        missing = tmp_path / "none.json"
        assert cli_main(["bench", "compare", "service", str(missing), str(current)]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_store_only_compare_single_positional_is_current(self, tmp_path, capsys):
        db = str(tmp_path / "bench.sqlite3")
        for value in (100.0, 100.0, 100.0):
            assert cli_main([
                "bench", "compare", "engine",
                str(engine_file(tmp_path, f"v{value}.json", value)),
                "--store", db,
            ]) == 0
        out = capsys.readouterr().out
        assert "rolling baseline" in out
        runs, _ = ResultsStore(db).runs(scenario="bench-engine", limit=10)
        assert len(runs) == 3

    def test_combined_mode_runs_both_gates(self, tmp_path):
        db = str(tmp_path / "bench.sqlite3")
        base = engine_file(tmp_path, "base.json", 100.0)
        cur = engine_file(tmp_path, "cur.json", 99.0)
        assert cli_main([
            "bench", "compare", "engine", str(base), str(cur), "--store", db,
        ]) == 0

    def test_missing_current_fails_missing_baseline_passes(self, tmp_path):
        base = engine_file(tmp_path, "base.json", 100.0)
        assert cli_main([
            "bench", "compare", "engine", str(base), str(tmp_path / "absent.json"),
        ]) == 1
        assert cli_main([
            "bench", "compare", "engine", str(tmp_path / "noexist.json"), str(base),
        ]) == 0

    def test_record_subcommand_appends(self, tmp_path, capsys):
        db = str(tmp_path / "bench.sqlite3")
        path = engine_file(tmp_path, "rows.json", 42.0)
        assert cli_main([
            "bench", "record", "engine", str(path), "--store", db, "--tag", "ci",
        ]) == 0
        assert "recorded engine rows" in capsys.readouterr().out
        runs, _ = ResultsStore(db).runs(scenario="bench-engine", tag="ci")
        assert len(runs) == 1

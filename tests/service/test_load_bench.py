"""Tests for the service load benchmark and its comparison rows."""

import json

from benchmarks.service_load import _percentiles, run_load
from repro.results.compare import compare, load_service_metrics, service_throughput_line


def service_file(tmp_path, name="BENCH_service.json", p99_submit=12.0, p99_e2e=80.0):
    payload = {
        "config": {"threads": 4, "submissions_per_thread": 10},
        "load": {
            "total_jobs": 40,
            "completed_jobs": 40,
            "failures": 0,
            "jobs_per_sec": 400.0,
            "submit_latency_ms": {"p50": 5.0, "p99": p99_submit, "mean": 6.0, "max": 15.0},
            "e2e_latency_ms": {"p50": 50.0, "p99": p99_e2e, "mean": 55.0, "max": 90.0},
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestServiceMetrics:
    def test_flattens_latency_percentiles_only(self, tmp_path):
        metrics = load_service_metrics(service_file(tmp_path))
        assert metrics == {
            "submit_latency_ms.p50": 5.0,
            "submit_latency_ms.p99": 12.0,
            "e2e_latency_ms.p50": 50.0,
            "e2e_latency_ms.p99": 80.0,
        }

    def test_throughput_line_is_informational(self, tmp_path):
        line = service_throughput_line(service_file(tmp_path))
        assert "400.0 jobs/s" in line
        assert "40/40" in line


class TestLowerIsBetterComparison:
    def test_latency_growth_beyond_limit_fails(self, tmp_path):
        baseline = load_service_metrics(service_file(tmp_path, "base.json"))
        current = load_service_metrics(
            service_file(tmp_path, "cur.json", p99_e2e=80.0 * 1.5)
        )
        table, failed = compare(baseline, current, 0.25, lower_is_better=True)
        assert failed
        assert "REGRESSION" in table

    def test_latency_improvement_passes(self, tmp_path):
        baseline = load_service_metrics(service_file(tmp_path, "base.json"))
        current = load_service_metrics(
            service_file(tmp_path, "cur.json", p99_submit=6.0, p99_e2e=40.0)
        )
        _, failed = compare(baseline, current, 0.25, lower_is_better=True)
        assert not failed

    def test_growth_within_limit_passes(self, tmp_path):
        baseline = load_service_metrics(service_file(tmp_path, "base.json"))
        current = load_service_metrics(
            service_file(tmp_path, "cur.json", p99_e2e=80.0 * 1.2)
        )
        table, failed = compare(baseline, current, 0.25, lower_is_better=True)
        assert not failed
        assert "ok (within limit)" in table


class TestPercentiles:
    def test_percentiles_of_known_samples(self):
        samples = [float(i) for i in range(1, 101)]
        stats = _percentiles(samples)
        assert stats["p50"] == 50.0 or stats["p50"] == 51.0
        assert stats["p99"] == 99.0 or stats["p99"] == 100.0
        assert stats["max"] == 100.0

    def test_empty_samples(self):
        assert _percentiles([]) == {"p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}


class TestRunLoadTiny:
    def test_tiny_load_run_completes_cleanly(self):
        payload = run_load(threads=2, submissions_per_thread=2, service_workers=2)
        load = payload["load"]
        assert load["failures"] == 0, load["errors"]
        assert load["completed_jobs"] == 4
        assert load["submit_latency_ms"]["p99"] > 0
        assert load["jobs_per_sec"] > 0

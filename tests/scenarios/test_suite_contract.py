"""Unit tests for the scenario-suite gates (without running the heavy suite)."""

import json

import pytest

from benchmarks import scenario_suite


def summary(lssrs, bsp_ok=True, local_ok=True, name="s"):
    deltas = [0.0, 0.1, 1e9][: len(lssrs)]
    return {
        "name": name,
        "records": [
            {"params": {"delta": d}, "metrics": {"lssr": lssr}}
            for d, lssr in zip(deltas, lssrs)
        ],
        "endpoints": {
            "bsp": {"matches_sweep_endpoint": bsp_ok},
            "local_sgd": {"matches_sweep_endpoint": local_ok},
        },
    }


class TestSweepContract:
    def test_passing_sweep(self):
        scenario_suite.check_sweep_contract(summary([0.0, 0.5, 1.0]))

    def test_non_monotone_rejected(self):
        with pytest.raises(AssertionError, match="monotone"):
            scenario_suite.check_sweep_contract(summary([0.0, 1.0, 0.5]))

    def test_nonzero_start_rejected(self):
        with pytest.raises(AssertionError, match="δ=0"):
            scenario_suite.check_sweep_contract(summary([0.1, 0.5, 1.0]))

    def test_partial_local_end_rejected(self):
        with pytest.raises(AssertionError, match="δ=max"):
            scenario_suite.check_sweep_contract(summary([0.0, 0.5, 0.9]))

    def test_endpoint_divergence_rejected(self):
        with pytest.raises(AssertionError, match="BSPTrainer"):
            scenario_suite.check_sweep_contract(summary([0.0, 0.5, 1.0], bsp_ok=False))
        with pytest.raises(AssertionError, match="LocalSGDTrainer"):
            scenario_suite.check_sweep_contract(summary([0.0, 0.5, 1.0], local_ok=False))


class TestSuiteWiring:
    def test_merge_keeps_other_sections(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_scenarios.json"
        path.write_text(json.dumps({"existing": {"records": []}}))
        monkeypatch.setattr(scenario_suite, "RESULT_PATH", path)
        scenario_suite.merge_into_result_file({"fresh": {"records": []}})
        merged = json.loads(path.read_text())
        assert set(merged) == {"existing", "fresh"}

    def test_merge_recovers_from_corrupt_file(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_scenarios.json"
        path.write_text("{not json")
        monkeypatch.setattr(scenario_suite, "RESULT_PATH", path)
        scenario_suite.merge_into_result_file({"fresh": {"records": []}})
        assert set(json.loads(path.read_text())) == {"fresh"}

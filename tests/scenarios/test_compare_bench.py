"""The scenario-file rows of :mod:`repro.results.compare`.

The engine-file comparison path is exercised by ``tests/results``; these
tests pin the BENCH_scenarios.json specifics: the synthesized per-scenario
sweep rate and a regression detected across two files.
"""

import json

from repro.results.compare import compare, load_scenario_metrics


def scenario_file(tmp_path, name="BENCH_scenarios.json", sweep_wall_seconds=2.0):
    payload = {
        "deep-mlp-delta-n64": {
            "name": "deep-mlp-delta-n64",
            "meta": {"iterations": 24, "sweep_wall_seconds": sweep_wall_seconds},
            "records": [{"params": {"delta": d}, "metrics": {}} for d in (0.0, 1e9)],
        },
        "fault_replay": {"scenarios": {"fault-replay-deep-mlp": {"metrics": {}}}},
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestScenarioMetrics:
    def test_synthesizes_one_sweep_rate_per_scenario(self, tmp_path):
        metrics = load_scenario_metrics(scenario_file(tmp_path))
        # 24 iterations × 2 grid points over 2.0s of sweep wall-clock; the
        # fault-replay section carries no wall-clock, so it adds no row.
        assert metrics == {"deep-mlp-delta-n64.sweep_steps_per_sec": 24.0}

    def test_regression_detected_across_files(self, tmp_path):
        baseline = load_scenario_metrics(scenario_file(tmp_path, "base.json"))
        current = load_scenario_metrics(
            scenario_file(tmp_path, "cur.json", sweep_wall_seconds=6.0)
        )
        _, failed = compare(baseline, current, max_regression=0.25)
        assert failed
        _, failed = compare(baseline, baseline, max_regression=0.25)
        assert not failed

"""Validation tests for the scenario dataclasses."""

import dataclasses

import pytest

from repro.scenarios.spec import (
    ComparisonScenario,
    ScenarioError,
    SweepScenario,
    ThroughputScenario,
)


def sweep(**overrides) -> SweepScenario:
    base = dict(
        name="test-sweep",
        title="a test sweep",
        workload="resnet101",
        algorithm="selsync",
        grid={"delta": (0.0, 0.5)},
    )
    base.update(overrides)
    return SweepScenario(**base)


class TestSweepScenario:
    def test_valid_scenario_normalizes_grid_to_tuples(self):
        scenario = sweep(grid={"delta": [0.0, 0.5]})
        assert scenario.grid == {"delta": (0.0, 0.5)}
        assert scenario.kind == "sweep"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            sweep().iterations = 1

    def test_unknown_workload(self):
        with pytest.raises(ScenarioError, match="unknown workload"):
            sweep(workload="bert")

    def test_unknown_algorithm(self):
        with pytest.raises(ScenarioError, match="unknown algorithm"):
            sweep(algorithm="gossip")

    def test_empty_grid(self):
        with pytest.raises(ScenarioError, match="at least one parameter"):
            sweep(grid={})

    def test_empty_grid_entry(self):
        with pytest.raises(ScenarioError, match="no values"):
            sweep(grid={"delta": ()})

    def test_run_setting_is_not_a_grid_key(self):
        with pytest.raises(ScenarioError, match=r"unknown selsync params \['num_workers'\]"):
            sweep(grid={"num_workers": (2, 4)})

    def test_run_setting_is_not_a_param(self):
        with pytest.raises(ScenarioError, match=r"unknown selsync params \['dtype'\]"):
            sweep(params={"dtype": "float32"})

    def test_unknown_grid_key(self):
        with pytest.raises(ScenarioError, match=r"unknown bsp params \['delta'\]"):
            sweep(algorithm="bsp", grid={"delta": (0.0, 0.5)})

    def test_invalid_param_value(self):
        with pytest.raises(ScenarioError, match="delta must be non-negative"):
            sweep(grid={"delta": (0.0, -1.0)})

    def test_grid_params_collision(self):
        with pytest.raises(ScenarioError, match=r"\['delta'\] appear in both grid and params"):
            sweep(grid={"delta": (0.0,)}, params={"delta": 0.5})

    def test_two_key_grid_varies_the_rightmost_key_fastest(self):
        scenario = sweep(grid={"delta": (0.1, 0.5), "ewma_alpha": (0.2, 0.4, 0.8)})
        assert [point for point, _ in scenario.runs] == [
            {"delta": d, "ewma_alpha": a} for d in (0.1, 0.5) for a in (0.2, 0.4, 0.8)
        ]
        assert [config.params for _, config in scenario.runs] == [
            point for point, _ in scenario.runs
        ]

    def test_iterator_grid_values_expand_fully(self):
        scenario = sweep(grid={"delta": iter([0.0, 0.1, 0.5])})
        assert scenario.grid == {"delta": (0.0, 0.1, 0.5)}
        assert [point["delta"] for point, _ in scenario.runs] == [0.0, 0.1, 0.5]

    def test_runs_expand_the_grid_into_configs(self):
        scenario = sweep(grid={"delta": (0.0, 0.5)}, params={"aggregation": "grad"},
                         iterations=40)
        assert [point for point, _ in scenario.runs] == [{"delta": 0.0}, {"delta": 0.5}]
        config = scenario.runs[1][1]
        assert config.params == {"aggregation": "grad", "delta": 0.5}
        assert (config.workload, config.iterations, config.eval_every) == ("resnet101", 40, 10)

    def test_whitespace_name_rejected(self):
        with pytest.raises(ScenarioError, match="whitespace"):
            sweep(name="bad name")

    @pytest.mark.parametrize("field,value", [
        ("num_workers", 0), ("iterations", 0), ("seed", -1), ("eval_every", 0),
        ("batch_size", 0), ("dtype", "float16"),
    ])
    def test_bad_run_settings(self, field, value):
        with pytest.raises(ScenarioError):
            sweep(**{field: value})

    def test_verify_endpoints_requires_selsync_delta_grid(self):
        with pytest.raises(ScenarioError, match="selsync"):
            sweep(algorithm="ssp", grid={"staleness": (10, 100)},
                  verify_endpoints=True)

    def test_verify_endpoints_requires_delta_only_grid(self):
        with pytest.raises(ScenarioError, match="exactly 'delta'"):
            sweep(grid={"delta": (0.0, 1.0), "ewma_alpha": (0.1, 0.5)},
                  params={"aggregation": "grad", "sync_on_first_step": False},
                  verify_endpoints=True)

    def test_verify_endpoints_requires_zero_delta(self):
        with pytest.raises(ScenarioError, match="BSP endpoint"):
            sweep(grid={"delta": (0.1, 1.0)},
                  params={"aggregation": "grad", "sync_on_first_step": False},
                  verify_endpoints=True)

    def test_verify_endpoints_requires_exact_parity_config(self):
        with pytest.raises(ScenarioError, match="aggregation='grad'"):
            sweep(grid={"delta": (0.0, 1e9)}, verify_endpoints=True)

    def test_verify_endpoints_valid(self):
        scenario = sweep(
            grid={"delta": (0.0, 1e9)},
            params={"aggregation": "grad", "sync_on_first_step": False},
            verify_endpoints=True,
        )
        assert scenario.verify_endpoints

    def test_eval_every_scales_with_override(self):
        scenario = sweep(iterations=80)
        assert scenario.runs[0][1].eval_every == 20
        assert dataclasses.replace(scenario, iterations=8).runs[0][1].eval_every == 2
        assert sweep(eval_every=7, iterations=1000).runs[0][1].eval_every == 7

    @pytest.mark.parametrize("field,value", [
        ("stacked", True), ("max_stacked_rows", 8),
        ("pool_workers", 2), ("pool_start_method", "fork"),
    ])
    def test_removed_execution_fields_are_type_errors(self, field, value):
        with pytest.raises(TypeError, match=field):
            sweep(**{field: value})


class TestComparisonScenario:
    def comparison(self, **overrides) -> ComparisonScenario:
        base = dict(
            name="test-comparison",
            title="a test comparison",
            methods={"bsp": ("bsp", {}), "selsync": ("selsync", {"delta": 0.3})},
        )
        base.update(overrides)
        return ComparisonScenario(**base)

    def test_valid(self):
        scenario = self.comparison()
        assert scenario.kind == "comparison"
        assert scenario.baseline == "bsp"

    def test_empty_methods(self):
        with pytest.raises(ScenarioError, match="methods"):
            self.comparison(methods={})

    def test_malformed_method_entry(self):
        with pytest.raises(ScenarioError, match="pair"):
            self.comparison(methods={"bsp": "bsp"})

    def test_unknown_method_algorithm(self):
        with pytest.raises(ScenarioError, match="unknown algorithm"):
            self.comparison(methods={"x": ("gossip", {})})

    def test_run_setting_is_not_a_method_param(self):
        with pytest.raises(ScenarioError, match=r"unknown bsp params \['seed'\]"):
            self.comparison(methods={"bsp": ("bsp", {"seed": 3})})

    def test_fedavg_seed_is_a_method_param(self):
        scenario = self.comparison(methods={"bsp": ("bsp", {}), "f": ("fedavg", {"seed": 3})})
        assert scenario.runs[1][1].params == {"seed": 3}

    def test_baseline_defaults_to_the_first_method(self):
        scenario = self.comparison(methods={"mine": ("selsync", {}), "bsp": ("bsp", {})})
        assert scenario.baseline == "mine"

    def test_missing_baseline(self):
        with pytest.raises(ScenarioError, match="baseline"):
            self.comparison(methods={"selsync": ("selsync", {})}, baseline="bsp")

    def test_unknown_workload(self):
        with pytest.raises(ScenarioError, match="unknown workload"):
            self.comparison(workloads=("bert",))

    def test_empty_workloads(self):
        with pytest.raises(ScenarioError, match="workloads"):
            self.comparison(workloads=())

    @pytest.mark.parametrize("field,value", [("pool_workers", 2), ("pool_start_method", "fork")])
    def test_removed_pool_fields_are_type_errors(self, field, value):
        with pytest.raises(TypeError, match=field):
            self.comparison(**{field: value})


class TestThroughputScenario:
    def test_valid(self):
        scenario = ThroughputScenario(
            name="t", title="t", workloads=("resnet101", "vgg11")
        )
        assert scenario.kind == "throughput"
        assert scenario.worker_counts == (1, 2, 4, 8, 16)

    def test_unknown_paper_workload(self):
        # deep_mlp is a harness preset but not a paper-scale cost-model spec.
        with pytest.raises(ScenarioError, match="paper workload"):
            ThroughputScenario(name="t", title="t", workloads=("deep_mlp",))

    def test_bad_worker_counts(self):
        with pytest.raises(ScenarioError, match=">= 1"):
            ThroughputScenario(
                name="t", title="t", workloads=("resnet101",), worker_counts=(0, 4)
            )

    def test_empty_worker_counts(self):
        with pytest.raises(ScenarioError, match="worker_counts"):
            ThroughputScenario(
                name="t", title="t", workloads=("resnet101",), worker_counts=()
            )

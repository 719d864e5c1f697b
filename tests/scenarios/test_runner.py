"""Tests for the scenario runner: all three kinds, overrides, endpoint parity."""

import json

import pytest

from repro.scenarios import (
    ComparisonScenario,
    ScenarioError,
    SweepScenario,
    ThroughputScenario,
    run_scenario,
)


def tiny_sweep(**overrides) -> SweepScenario:
    base = dict(
        name="tiny-sweep",
        title="tiny δ sweep",
        workload="resnet101",
        algorithm="selsync",
        grid={"delta": (0.0, 1e9)},
        num_workers=2,
        iterations=6,
        batch_size=8,
    )
    base.update(overrides)
    return SweepScenario(**base)


class TestSweepRunner:
    def test_records_cover_grid_in_order(self):
        report = run_scenario(tiny_sweep())
        assert report.kind == "sweep"
        assert [r.params["delta"] for r in report.records] == [0.0, 1e9]
        for record in report.records:
            assert {"lssr", "best_metric", "final_loss", "sim_time_seconds",
                    "iterations", "communication_bytes"} <= set(record.metrics)
        # raw results are kept for exact assertions
        assert report.results["delta=0.0"].iterations == 6

    def test_overrides_do_not_mutate_scenario(self):
        scenario = tiny_sweep()
        report = run_scenario(scenario, iterations=4, num_workers=3, seed=7)
        assert scenario.iterations == 6 and scenario.num_workers == 2
        assert report.meta["iterations"] == 4
        assert report.meta["num_workers"] == 3
        assert report.meta["seed"] == 7
        assert report.results["delta=0.0"].iterations == 4

    def test_bad_overrides_rejected(self):
        with pytest.raises(ScenarioError, match="iterations"):
            run_scenario(tiny_sweep(), iterations=0)
        with pytest.raises(ScenarioError, match="num_workers"):
            run_scenario(tiny_sweep(), num_workers=0)
        with pytest.raises(ScenarioError, match="seed"):
            run_scenario(tiny_sweep(), seed=-1)

    def test_series_and_table(self):
        report = run_scenario(tiny_sweep())
        lssr = report.series("delta", "lssr")
        assert set(lssr) == {0.0, 1e9}
        table = report.table()
        assert "lssr" in table
        # The 1e9 sentinel renders as the local-SGD extreme it stands for.
        assert "∞ (local SGD)" in table
        assert "1,000,000,000" not in table

    def test_to_dict_is_json_serializable(self):
        report = run_scenario(tiny_sweep())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["name"] == "tiny-sweep"
        assert len(payload["records"]) == 2
        assert "results" not in payload

    def test_registry_name_resolution(self):
        report = run_scenario("fig6-delta-sweep", iterations=4, num_workers=2)
        assert report.name == "fig6-delta-sweep"
        assert len(report.records) == 6


class TestEndpointVerification:
    def test_exact_parity_against_existing_trainers(self):
        scenario = tiny_sweep(
            params={"aggregation": "grad", "sync_on_first_step": False},
            verify_endpoints=True,
        )
        report = run_scenario(scenario)
        assert report.endpoints["bsp"]["matches_sweep_endpoint"] is True
        assert report.endpoints["local_sgd"]["matches_sweep_endpoint"] is True
        # The anchors themselves are recorded for the artifact trail.
        assert report.results["anchor/bsp"].lssr == 0.0
        assert report.results["anchor/local_sgd"].lssr == 1.0
        assert report.endpoints["bsp"]["delta"] == 0.0
        assert report.endpoints["local_sgd"]["delta"] == 1e9

    def test_delta_zero_reproduces_bsp_bit_for_bit(self):
        scenario = tiny_sweep(
            params={"aggregation": "grad", "sync_on_first_step": False},
            verify_endpoints=True,
        )
        report = run_scenario(scenario)
        sweep0 = report.results["delta=0.0"]
        bsp = report.results["anchor/bsp"]
        assert sweep0.final_loss == bsp.final_loss
        assert sweep0.final_metric == bsp.final_metric
        assert [p.metric for p in sweep0.history] == [p.metric for p in bsp.history]


SWEEPS_RUN_ALONE = {
    "selsync-delta": dict(grid={"delta": (0.0, 0.5, 1e9)}),
    "local-sgd-sync-period": dict(algorithm="local_sgd", grid={"sync_period": (1, 2, 4)}),
    "transformer-delta": dict(workload="transformer", num_workers=2, iterations=4,
                              batch_size=2),
    "float32-delta": dict(dtype="float32", grid={"delta": (0.0, 0.5, 1e9)}),
}


class TestSweepPointsRunAlone:
    """A sweep runs its points one after another in one process; nothing of an
    earlier point (executor caches, dropout stream, thread pool) may leak into
    a later one."""

    @pytest.mark.parametrize("case", sorted(SWEEPS_RUN_ALONE))
    def test_every_point_equals_its_standalone_run(self, case):
        from repro.harness.experiment import run_experiment

        scenario = tiny_sweep(**{"workload": "deep_mlp", "num_workers": 4, "batch_size": 4,
                                 **SWEEPS_RUN_ALONE[case]})
        report = run_scenario(scenario)
        for record, (_, config) in zip(report.records, scenario.runs):
            key = "/".join(f"{k}={v}" for k, v in record.params.items())
            assert config.params == {**scenario.params, **record.params}
            assert config.eval_every == max(scenario.iterations // 4, 1)
            assert report.results[key] == run_experiment(config)

    def test_records_and_meta_carry_wall_seconds(self):
        scenario = tiny_sweep(
            workload="deep_mlp", num_workers=4, batch_size=4,
            params={"aggregation": "grad", "sync_on_first_step": False},
            verify_endpoints=True,
        )
        report = run_scenario(scenario)
        assert report.meta["sweep_wall_seconds"] > 0
        for record in report.records:
            assert record.metrics["wall_seconds"] > 0
        for anchor in report.endpoints.values():
            assert anchor["record"]["metrics"]["wall_seconds"] > 0

    def test_meta_is_the_run_description_and_nothing_else(self):
        report = run_scenario(tiny_sweep())
        assert set(report.meta) == {
            "workload", "algorithm", "num_workers", "iterations", "seed",
            "eval_every", "grid", "params", "dtype", "transport_dtype", "tags",
            "sweep_wall_seconds",
        }

    @pytest.mark.parametrize("knob, value", [("stacked", True), ("max_stacked_rows", 8)])
    def test_removed_stacked_overrides_are_type_errors(self, knob, value):
        with pytest.raises(TypeError, match=knob):
            run_scenario(tiny_sweep(), **{knob: value})


class TestOneRecordPath:
    def test_experiment_sweep_point_and_comparison_method_records_are_equal(self):
        from repro.api import run
        from repro.harness.experiment import RunConfig

        sizing = dict(num_workers=2, iterations=6, eval_every=3)
        config = RunConfig("deep_mlp", "selsync", {"delta": 0.3}, **sizing)
        sweep = SweepScenario(name="one-point", title="t", workload="deep_mlp",
                              grid={"delta": (0.3,)}, **sizing)
        comparison = ComparisonScenario(
            name="one-method", title="t", methods={"selsync": ("selsync", {"delta": 0.3})},
            workloads=("deep_mlp",), use_convergence=False, **sizing,
        )
        assert sweep.runs[0][1] == config == comparison.runs[0][1]

        experiment = run(kind="experiment", workload="deep_mlp", algorithm="selsync",
                         params={"delta": 0.3}, **sizing).records[0]
        point = run_scenario(sweep).records[0].to_dict()
        assert point["metrics"].pop("wall_seconds") > 0
        method = run_scenario(comparison).records[0].to_dict()
        assert method.pop("params") == {"workload": "deep_mlp", "method": "selsync"}
        assert point == experiment
        assert method == {k: v for k, v in experiment.items() if k != "params"}


class TestComparisonRunner:
    def test_records_per_workload_and_method(self):
        scenario = ComparisonScenario(
            name="tiny-comparison",
            title="tiny comparison",
            methods={"bsp": ("bsp", {}), "selsync": ("selsync", {"delta": 0.3})},
            workloads=("resnet101",),
            num_workers=2,
            iterations=6,
            use_convergence=False,
        )
        report = run_scenario(scenario)
        assert report.kind == "comparison"
        keys = {(r.params["workload"], r.params["method"]) for r in report.records}
        assert keys == {("resnet101", "bsp"), ("resnet101", "selsync")}
        assert "Outperform BSP?" in report.table()

    def test_convergence_detector_can_stop_early(self):
        scenario = ComparisonScenario(
            name="tiny-early-stop",
            title="early stop",
            methods={"bsp": ("bsp", {})},
            workloads=("resnet101",),
            num_workers=2,
            iterations=12,
            eval_every=1,
            convergence_patience=1,
            convergence_min_delta=10.0,  # impossible improvement bar
        )
        report = run_scenario(scenario)
        assert report.results["resnet101/bsp"].iterations < 12


class TestThroughputRunner:
    def test_curves_and_override_rejection(self):
        scenario = ThroughputScenario(
            name="tiny-throughput", title="t",
            workloads=("resnet101", "vgg11"), worker_counts=(1, 4),
        )
        report = run_scenario(scenario)
        assert report.kind == "throughput"
        assert len(report.records) == 4
        curve = report.series("workers", "relative_throughput")
        assert curve[1] == 1.0
        assert "workers" in report.table()
        with pytest.raises(ScenarioError, match=r"no \['iterations'\] to override"):
            run_scenario(scenario, iterations=10)

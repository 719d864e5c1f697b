"""Tests for workload presets, the experiment runner, sweeps and reporting."""

import numpy as np
import pytest

from repro.algorithms.base import TrainingResult
from repro.compression import TopKCompressor
from repro.core.config import SelSyncConfig
from repro.data.injection import adjusted_batch_size
from repro.harness.experiment import (
    WORKLOAD_PRESETS,
    ConfigError,
    RunConfig,
    build_cluster,
    build_workload,
    make_trainer,
    run_experiment,
)
from repro.harness.reporting import (
    format_table,
    results_to_rows,
    table1_headers,
)
from repro.harness.sweep import grid_sweep


class TestPresets:
    def test_all_workload_presets_registered(self):
        # The paper's four workloads plus the deep-MLP large-N sweep analog.
        assert set(WORKLOAD_PRESETS) == {
            "resnet101", "vgg11", "alexnet", "transformer", "deep_mlp",
        }

    def test_deep_mlp_preset_is_classification_mlp(self):
        from repro.nn.models import MLP

        preset = build_workload("deep_mlp")
        assert preset.task == "classification"
        model = preset.model_factory(np.random.default_rng(0))
        assert isinstance(model, MLP)

    def test_build_workload_case_insensitive(self):
        assert build_workload("ResNet101").name == "resnet101"

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            build_workload("bert")

    def test_alexnet_uses_top5_and_adam(self):
        preset = build_workload("alexnet")
        assert preset.top_k == 5
        from repro.optim.adam import Adam

        model = preset.model_factory(np.random.default_rng(0))
        assert isinstance(preset.optimizer_factory(model), Adam)

    def test_transformer_is_language_modeling(self):
        assert build_workload("transformer").task == "language_modeling"

    def test_lr_schedules_decay_for_resnet(self):
        preset = build_workload("resnet101")
        schedule = preset.lr_schedule_factory(100)
        assert schedule(99) < schedule(0)


class TestBuildCluster:
    def test_cluster_matches_preset(self):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0)
        assert cluster.num_workers == 2
        assert cluster.config.task == "classification"
        assert cluster.workload_spec.name == "resnet101"

    def test_batch_size_override(self):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        assert cluster.batch_size == 8

    @pytest.mark.parametrize("knob, value", [("pool_workers", 2), ("pool_start_method", "fork")])
    def test_removed_pool_knobs_are_type_errors(self, knob, value):
        with pytest.raises(TypeError, match=knob):
            build_cluster(build_workload("deep_mlp"), num_workers=2, **{knob: value})

    def test_cluster_factory_is_gone(self):
        with pytest.raises(TypeError, match="cluster_factory"):
            build_cluster(build_workload("deep_mlp"), num_workers=2, cluster_factory=object)


TRAINER_OPTIONS = [
    ("bsp", {}),
    ("selsync", {"delta": 0.3}),
    ("fedavg", {"participation": 0.5, "sync_factor": 0.25}),
    ("ssp", {"staleness": 50}),
    ("local_sgd", {"sync_period": 4}),
    ("compressed_bsp", {"compressor": TopKCompressor(ratio=0.1)}),
]


class TestMakeTrainer:
    @pytest.mark.parametrize("algorithm,kwargs", TRAINER_OPTIONS)
    def test_all_algorithms_constructible(self, algorithm, kwargs):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        trainer = make_trainer(algorithm, cluster, preset, total_iterations=50, **kwargs)
        assert trainer is not None

    def test_unknown_algorithm(self):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        with pytest.raises(KeyError):
            make_trainer("gossip", cluster, preset, total_iterations=10)

    def test_compressed_bsp_requires_compressor(self):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        with pytest.raises(TypeError, match="compressor"):
            make_trainer("compressed_bsp", cluster, preset, total_iterations=10)

    def test_selsync_accepts_all_config_fields(self):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        trainer = make_trainer(
            "selsync", cluster, preset, total_iterations=10,
            delta=0.1, aggregation="grad", statistic="norm", sync_on_first_step=False,
        )
        assert trainer.config.aggregation == "grad"
        assert trainer.config.statistic == "norm"
        assert trainer.config.sync_on_first_step is False

    def test_selsync_ewma_alpha_reaches_the_bank(self):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        trainer = make_trainer("selsync", cluster, preset, total_iterations=10, ewma_alpha=0.5)
        assert trainer.config.ewma_alpha == 0.5
        assert trainer.bank.alpha == 0.5

    def test_selsync_ewma_window_is_a_type_error(self):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        with pytest.raises(TypeError, match="ewma_window"):
            make_trainer("selsync", cluster, preset, total_iterations=10, ewma_window=25)

    @pytest.mark.parametrize("algorithm,kwargs", TRAINER_OPTIONS)
    def test_a_keyword_no_trainer_takes_is_a_type_error(self, algorithm, kwargs):
        # The removed process-pool knob must not be swallowed as an option.
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        with pytest.raises(TypeError, match="pool_workers"):
            make_trainer(algorithm, cluster, preset, total_iterations=10,
                         pool_workers=2, **kwargs)

    @pytest.mark.parametrize(
        "algorithm, foreign",
        [("bsp", "delta"), ("fedavg", "staleness"), ("ssp", "sync_period"),
         ("local_sgd", "participation")],
    )
    def test_another_trainers_option_is_a_type_error(self, algorithm, foreign):
        preset = build_workload("resnet101")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        with pytest.raises(TypeError, match=foreign):
            make_trainer(algorithm, cluster, preset, total_iterations=10, **{foreign: 1})
        with pytest.raises(ConfigError, match=rf"unknown {algorithm} params \['{foreign}'\]"):
            RunConfig("resnet101", algorithm, {foreign: 1})

    @pytest.mark.parametrize(
        "algorithm, params, message",
        [
            ("fedavg", {"participation": 2.0}, r"participation C must be in \(0, 1\]"),
            ("fedavg", {"sync_factor": 0.0}, r"sync_factor E must be in \(0, 1\]"),
            ("ssp", {"staleness": -1}, "staleness must be non-negative"),
            ("local_sgd", {"sync_period": 0}, "sync_period must be >= 1"),
        ],
    )
    def test_an_out_of_range_param_fails_at_config_and_constructor_alike(
        self, algorithm, params, message
    ):
        with pytest.raises(ConfigError, match=message):
            RunConfig("deep_mlp", algorithm, params)
        preset = build_workload("deep_mlp")
        cluster = build_cluster(preset, num_workers=2, seed=0, batch_size=8)
        with pytest.raises(ValueError, match=message):
            make_trainer(algorithm, cluster, preset, total_iterations=10, **params)

    @pytest.mark.parametrize(
        "algorithm, params",
        [("fedavg", {"participation": 1.0, "sync_factor": 0.125}), ("ssp", {"staleness": 0}),
         ("local_sgd", {"sync_period": 1})],
    )
    def test_range_endpoints_are_accepted(self, algorithm, params):
        assert RunConfig("deep_mlp", algorithm, params).params == params


class TestRunExperiment:
    def test_selsync_end_to_end(self):
        out = run_experiment(RunConfig("resnet101", "selsync", {"delta": 0.3}, num_workers=2,
                                       iterations=12, eval_every=6, seed=0))
        assert out.workload == "resnet101"
        assert out.result.iterations == 12
        assert "δ=0.3" in out.algorithm

    def test_default_partitioning_flag(self):
        out = run_experiment(RunConfig("resnet101", "bsp", num_workers=2, iterations=6,
                                       eval_every=6, use_default_partitioning=True))
        assert out.result.lssr == 0.0

    def test_injection_adjusts_batch_size(self, monkeypatch):
        from repro.harness import experiment

        built = []
        build = experiment.build_cluster
        monkeypatch.setattr(experiment, "build_cluster",
                            lambda *a, **k: built.append(k["batch_size"]) or build(*a, **k))
        params = {"injection_alpha": 0.5, "injection_beta": 0.5, "delta": 0.3}
        out = run_experiment(RunConfig("resnet101", "selsync", params, num_workers=4,
                                       iterations=6, eval_every=6))
        assert out.result.extras["delta"] == 0.3
        assert built == [adjusted_batch_size(32, 0.5, 0.5, 4)] and built[0] != 32

    @pytest.mark.parametrize("algorithm, params, message", [
        ("ssp", {"staleness": "many"}, "'staleness' must be int"),
        ("compressed_bsp", {"compressor": {"ratio": 0.1}}, "'compressor' must be Compressor"),
        ("compressed_bsp", {}, "compressor"),
        ("selsync", {"delta": 0.3, "config": SelSyncConfig()}, "delta"),
        ("selsync", {"aggregation": "mean"}, "aggregation"),
    ])
    def test_params_are_checked_against_the_constructor(self, algorithm, params, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig("deep_mlp", algorithm, params)

    def test_eval_every_defaults_to_an_eighth_of_the_run(self):
        assert RunConfig("deep_mlp", iterations=80).resolved_eval_every == 10
        assert RunConfig("deep_mlp", iterations=4).resolved_eval_every == 1
        assert RunConfig("deep_mlp", eval_every=3).resolved_eval_every == 3

    @pytest.mark.parametrize("knob, value", [("pool_workers", 2), ("pool_start_method", "fork")])
    def test_removed_pool_knobs_fail_instead_of_running_in_process(self, knob, value):
        with pytest.raises(TypeError, match=knob):
            run_experiment(RunConfig("deep_mlp", "bsp", num_workers=2, iterations=2),
                           **{knob: value})


class TestSweep:
    def test_grid_covers_cartesian_product(self):
        result = grid_sweep(lambda a, b: a * b, {"a": [1, 2, 3], "b": [10, 20]})
        assert len(result) == 6
        assert sorted(result.outputs()) == [10, 20, 20, 30, 40, 60]

    def test_fixed_arguments_passed(self):
        result = grid_sweep(lambda a, scale: a * scale, {"a": [1, 2]}, fixed={"scale": 5})
        assert result.outputs() == [5, 10]

    def test_best_selection(self):
        result = grid_sweep(lambda a: -(a - 2) ** 2, {"a": [0, 1, 2, 3]})
        assert result.best(key=lambda out: out)["params"]["a"] == 2

    def test_best_minimize_selects_smallest(self):
        result = grid_sweep(lambda a: (a - 2) ** 2, {"a": [0, 1, 2, 3]})
        best = result.best(key=lambda out: out, maximize=False)
        assert best["params"]["a"] == 2
        assert best["output"] == 0

    def test_best_on_empty_result_rejected(self):
        from repro.harness.sweep import SweepResult

        with pytest.raises(ValueError, match="no runs"):
            SweepResult().best(key=lambda out: out)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_sweep(lambda: None, {})

    def test_empty_grid_entry_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            grid_sweep(lambda a: a, {"a": []})

    def test_fixed_grid_collision_rejected(self):
        # Without the up-front check this would surface as a confusing
        # TypeError("multiple values for 'a'") from the swept function.
        with pytest.raises(ValueError, match="both grid and fixed"):
            grid_sweep(lambda a: a, {"a": [1, 2]}, fixed={"a": 3})

    def test_iterator_grid_values_run_fully(self):
        # The emptiness guard must not consume single-pass grid values.
        result = grid_sweep(lambda a: a * 2, {"a": iter([1, 2, 3])})
        assert result.outputs() == [2, 4, 6]


class TestReporting:
    def _result(self, name, metric, sim_time, lssr=0.5, metric_name="accuracy"):
        return TrainingResult(
            algorithm=name, metric_name=metric_name, iterations=100,
            sim_time_seconds=sim_time, final_metric=metric, best_metric=metric,
            final_loss=0.1, lssr=lssr, communication_bytes=0.0,
            history=[],
        )

    def test_format_table_alignment_and_rows(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, "x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bb" in lines[0]

    def test_format_table_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_table_title_and_columns(self):
        text = format_table(["workers", "throughput"], [[1, 2.0], [4, 8.0]], title="scaling")
        assert text.splitlines()[0].strip() == "scaling"
        assert "workers" in text and "8" in text

    def test_results_to_rows_table1_shape(self):
        results = {
            "bsp": self._result("bsp", 0.90, 100.0, lssr=0.0),
            "selsync": self._result("SelSync(δ=0.3, param)", 0.92, 40.0, lssr=0.8),
            "ssp": self._result("ssp(s=100)", 0.85, 30.0),
        }
        rows = results_to_rows(results, baseline_key="bsp")
        headers = table1_headers()
        assert all(len(row) == len(headers) for row in rows)
        selsync_row = rows[1]
        assert selsync_row[-1] == "2.50x"           # speedup over BSP
        ssp_row = rows[2]
        assert ssp_row[2] == "-"                     # LSSR undefined for SSP
        assert ssp_row[-1] == "-"                    # no speedup credit: worse than BSP

    def test_results_to_rows_missing_baseline(self):
        with pytest.raises(KeyError):
            results_to_rows({"selsync": self._result("selsync", 0.9, 1.0)})

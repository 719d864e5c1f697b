"""Tests for the unified repro.api façade: requests, validation, execution."""

import pytest

from repro.api import (
    ApiError,
    KINDS,
    RunCancelled,
    RunRequest,
    request_from_action,
    run,
)
from repro.harness.experiment import RunConfig, run_experiment
from repro.scenarios import ScenarioError, run_scenario


#: ``config_hash`` of each catalog scenario's default request, as computed
#: before the stacked-sweep and replica-pool knobs were removed.  Stored runs
#: are keyed by this hash, so it must not move.
CATALOG_REQUEST_HASHES = {
    "deep-mlp-delta-n128": "0858806586d3e8fb",
    "deep-mlp-delta-n256": "6c2c69337510dffa",
    "deep-mlp-delta-n64": "a1bd82954f0d2385",
    "delta-sweep-alexnet": "b1a013b85d134352",
    "delta-sweep-deep_mlp": "1e597e3de98ead66",
    "delta-sweep-resnet101": "fc7d08044673a9ec",
    "delta-sweep-transformer": "2c1c4b54b3c13de8",
    "delta-sweep-vgg11": "80fb25a439ed019a",
    "fault-random-deep-mlp-bsp": "5d8cf1ba6b825442",
    "fault-replay-deep-mlp": "a350f8fbed5c76be",
    "fault-replay-transformer": "41aa19815c6ec37d",
    "fig1a-throughput": "6dffdefd25564447",
    "fig6-delta-sweep": "c1645286bb0ecaf0",
    "fig6-transformer-delta-sweep": "dafe2aac1c136558",
    "quickstart": "b0c8a5a49a4851a1",
    "table1-comparison": "a70bfbdea68b09e7",
    "table1-comparison-full": "0094823a7ed42f30",
    "table1-transformer": "9a0a81e92e2e6a18",
    "transformer-delta-n128": "cb96f1031d2434b2",
    "transformer-delta-n256": "37767ae6ef9b75b0",
    "transformer-delta-n64": "4915f7323fa90365",
}


class TestRunRequest:
    def test_kind_is_validated(self):
        with pytest.raises(ApiError, match="unknown request kind"):
            RunRequest(kind="magic")
        assert set(KINDS) == {"experiment", "sweep", "comparison", "throughput", "scenario"}

    def test_per_kind_required_fields(self):
        with pytest.raises(ApiError, match=r"requires \['workload'\]"):
            RunRequest(kind="experiment", algorithm="bsp")
        with pytest.raises(ApiError, match=r"requires \['grid'\]"):
            RunRequest(kind="sweep", workload="deep_mlp", algorithm="selsync")
        with pytest.raises(ApiError, match="methods"):
            RunRequest(kind="comparison")
        with pytest.raises(ApiError, match="workloads"):
            RunRequest(kind="throughput")
        with pytest.raises(ApiError, match=r"requires \['scenario'\]"):
            RunRequest(kind="scenario")

    def test_kinds_reject_foreign_fields(self):
        with pytest.raises(ApiError, match=r"unknown request fields \['grid'\]"):
            RunRequest(kind="experiment", workload="resnet101", algorithm="bsp",
                       grid={"delta": [0.1]})
        with pytest.raises(ApiError, match=r"unknown request fields \['workload'\]"):
            RunRequest(kind="scenario", scenario="quickstart", workload="resnet101")
        with pytest.raises(ApiError, match=r"unknown request fields \['iterations'\]"):
            RunRequest(kind="throughput", workloads=["resnet101"], iterations=5)

    def test_run_settings_bounds(self):
        with pytest.raises(ApiError, match="num_workers"):
            RunRequest(kind="experiment", workload="resnet101", algorithm="bsp",
                       num_workers=0)
        with pytest.raises(ApiError, match="seed"):
            RunRequest(kind="experiment", workload="resnet101", algorithm="bsp", seed=-1)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ApiError, match="unknown request fields"):
            RunRequest.from_dict({"kind": "experiment", "workload": "resnet101",
                                  "algorithm": "bsp", "turbo": True})

    def test_to_dict_round_trips(self):
        request = RunRequest(kind="sweep", workload="deep_mlp", algorithm="selsync",
                             grid={"delta": [0.1, 0.3]}, num_workers=2, iterations=6)
        clone = RunRequest.from_dict(request.to_dict())
        assert clone == request

    def test_construction_builds_the_kinds_dataclass(self):
        request = RunRequest(kind="experiment", workload="deep_mlp", num_workers=2)
        assert request.target == RunConfig("deep_mlp", num_workers=2)
        sweep = RunRequest(kind="sweep", workload="deep_mlp", grid={"delta": [0.1]})
        assert sweep.target.name == "adhoc-sweep" and len(sweep.target.runs) == 1

    def test_scenario_level_errors_fail_at_construction(self):
        with pytest.raises(ScenarioError, match="seed"):
            RunRequest(kind="sweep", workload="deep_mlp", algorithm="selsync",
                       grid={"seed": [1, 2]})  # a run setting, not a param
        with pytest.raises(ScenarioError, match=r"no \['iterations'\] to override"):
            RunRequest(kind="scenario", scenario="fig1a-throughput", iterations=5)


class TestRequestFromAction:
    def test_scenario_action_maps_name(self):
        request = request_from_action("scenario", {"name": "quickstart", "iterations": 9})
        assert request.kind == "scenario"
        assert request.fields == {"scenario": "quickstart", "iterations": 9}
        assert request.target.iterations == 9

    def test_scenario_action_requires_name(self):
        with pytest.raises(ApiError, match="scenario"):
            request_from_action("scenario", {"iterations": 9})

    def test_comparison_fields_are_flat(self):
        request = request_from_action("comparison", {
            "methods": {"a": ["bsp", {}]}, "workloads": ["resnet101"],
            "iterations": 6, "use_convergence": False,
        })
        assert request.target.iterations == 6
        assert request.target.methods == {"a": ("bsp", {})}
        assert request.target.use_convergence is False

    def test_unknown_action_rejected(self):
        with pytest.raises(ApiError, match="unknown action"):
            request_from_action("frobnicate", {})


class TestRunExecution:
    def test_experiment_kind_matches_run_experiment(self):
        request = RunRequest(kind="experiment", workload="resnet101", algorithm="selsync",
                             params={"delta": 0.3}, num_workers=2, iterations=6,
                             seed=3, eval_every=2)
        out = run(request)
        direct = run_experiment(RunConfig("resnet101", "selsync", {"delta": 0.3},
                                          num_workers=2, iterations=6, seed=3, eval_every=2))
        assert out.kind == "experiment"
        assert out.label == direct.algorithm
        assert len(out.records) == 1
        record = out.records[0]
        assert record["params"] == {"delta": 0.3}
        assert record["metrics"]["final_loss"] == direct.final_loss
        assert record["metrics"]["best_metric"] == direct.best_metric
        assert record["metrics"]["communication_bytes"] == direct.communication_bytes
        assert out.results["run"].final_loss == direct.final_loss
        assert out.meta["eval_every"] == 2 and out.meta["seed"] == 3

    def test_experiment_kind_accepts_ewma_alpha(self):
        settings = dict(num_workers=2, iterations=6, seed=0, eval_every=3)
        out = run(kind="experiment", workload="deep_mlp", algorithm="selsync",
                  params={"ewma_alpha": 0.5}, **settings)
        direct = run_experiment(RunConfig("deep_mlp", "selsync", {"ewma_alpha": 0.5}, **settings))
        default = run_experiment(RunConfig("deep_mlp", "selsync", **settings))
        metrics = out.records[0]["metrics"]
        assert metrics["max_delta_observed"] == direct.extras["max_delta_observed"]
        assert metrics["max_delta_observed"] != default.extras["max_delta_observed"]

    def test_sweep_grid_over_ewma_alpha(self):
        out = run(kind="sweep", workload="deep_mlp", algorithm="selsync",
                  grid={"ewma_alpha": [0.1, 0.5]}, num_workers=2, iterations=6,
                  batch_size=8)
        assert [r["params"]["ewma_alpha"] for r in out.records] == [0.1, 0.5]
        maxima = [r["metrics"]["max_delta_observed"] for r in out.records]
        assert maxima[0] != maxima[1]

    @pytest.mark.parametrize("kind, field", [("experiment", "params"), ("sweep", "grid")])
    def test_ewma_window_is_an_unknown_param(self, kind, field):
        value = {"ewma_window": [25]} if field == "grid" else {"ewma_window": 25}
        with pytest.raises((ApiError, ScenarioError), match="ewma_window"):
            run(kind=kind, workload="deep_mlp", algorithm="selsync", num_workers=2,
                iterations=2, **{field: value})

    def test_scenario_kind_matches_run_scenario(self):
        out = run(RunRequest(kind="scenario", scenario="fig1a-throughput"))
        direct = run_scenario("fig1a-throughput").to_dict()
        assert [r for r in out.records] == direct["records"]
        assert out.report is not None and out.report.kind == "throughput"

    def test_sweep_kind_builds_adhoc_scenario(self):
        out = run(RunRequest(kind="sweep", workload="resnet101", algorithm="selsync",
                             grid={"delta": [0.0, 1e9]}, num_workers=2, iterations=6,
                             batch_size=8))
        assert out.kind == "sweep"
        assert [r["params"]["delta"] for r in out.records] == [0.0, 1e9]
        assert out.meta["name"] == "adhoc-sweep"

    def test_comparison_kind_defaults_baseline_to_first_method(self):
        out = run(RunRequest(kind="comparison", num_workers=2, iterations=6,
                             methods={"mine": ["selsync", {"delta": 0.3}],
                                      "bsp-ref": ["bsp", {}]},
                             workloads=["resnet101"], use_convergence=False))
        assert len(out.records) == 2
        assert out.meta["baseline"] == "mine"

    def test_run_kwargs_shorthand(self):
        out = run(kind="throughput", workloads=["resnet101"], worker_counts=[1, 2])
        assert [r["params"]["workers"] for r in out.records] == [1, 2]

    def test_request_plus_kwargs_is_an_error(self):
        request = RunRequest(kind="scenario", scenario="fig1a-throughput")
        with pytest.raises(ApiError, match="not both"):
            run(request, kind="scenario")

    def test_cancel_check_aborts_before_work(self):
        request = RunRequest(kind="experiment", workload="resnet101", algorithm="bsp",
                             iterations=4, num_workers=2)
        with pytest.raises(RunCancelled):
            run(request, cancel_check=lambda: True)
        with pytest.raises(RunCancelled):
            # comparison scenarios poll between method runs; the first poll
            # fires before any training happens
            run(RunRequest(kind="scenario", scenario="quickstart"),
                cancel_check=lambda: True)

    def test_result_to_dict_is_json_ready(self):
        import json

        out = run(kind="throughput", workloads=["resnet101"])
        payload = out.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["kind"] == "throughput"
        assert payload["records"] == out.records


#: One valid payload per request kind.
VALID_PAYLOADS = {
    "experiment": {"workload": "deep_mlp", "algorithm": "bsp"},
    "sweep": {"workload": "deep_mlp", "grid": {"delta": [0.1]}},
    "comparison": {"methods": {"bsp": ["bsp", {}]}},
    "throughput": {"workloads": ["resnet101"]},
    "scenario": {"scenario": "quickstart"},
}

#: Knobs that no surface takes any more: the replica pool and stacked sweep
#: executor, the ``workers`` / ``algo`` / ``fixed`` aliases, the ``options``
#: bag, and the ``injection`` / ``partitioner`` / ``fault_slowdown``
#: run_experiment keywords.
REMOVED_KNOBS = [
    ("pool_workers", 2), ("pool_start_method", "fork"), ("stacked", True),
    ("max_stacked_rows", 8), ("workers", 2), ("algo", "bsp"), ("fixed", {"delta": 0.1}),
    ("options", {"baseline": "bsp"}), ("injection", {"alpha": 0.5, "beta": 0.5}),
    ("partitioner", "default"), ("fault_slowdown", 3.0),
]


class TestRemovedKnobs:
    @pytest.mark.parametrize("kind", sorted(VALID_PAYLOADS))
    @pytest.mark.parametrize("knob, value", REMOVED_KNOBS)
    def test_from_dict_rejects_them_as_unknown_fields(self, knob, value, kind):
        payload = {"kind": kind, **VALID_PAYLOADS[kind]}
        RunRequest.from_dict(payload)
        with pytest.raises(ApiError, match=rf"unknown request fields \['{knob}'\]"):
            RunRequest.from_dict({**payload, knob: value})

    @pytest.mark.parametrize("kind", sorted(VALID_PAYLOADS))
    @pytest.mark.parametrize("knob, value", REMOVED_KNOBS)
    def test_http_rejects_them_as_unknown_fields(self, knob, value, kind):
        from repro.service.exceptions import BadRequest
        from repro.service.schemas import validate_payload

        payload = dict(VALID_PAYLOADS[kind])
        if kind == "scenario":
            payload = {"name": payload.pop("scenario")}
        validate_payload(kind, payload)
        with pytest.raises(BadRequest, match=rf"unknown fields \['{knob}'\]"):
            validate_payload(kind, {**payload, knob: value})

    @pytest.mark.parametrize("knob, value", REMOVED_KNOBS)
    def test_run_experiment_and_run_config_reject_them(self, knob, value):
        config = RunConfig("deep_mlp", "bsp", num_workers=2, iterations=2)
        with pytest.raises(TypeError, match=knob):
            run_experiment(config, **{knob: value})
        with pytest.raises(TypeError, match=knob):
            RunConfig("deep_mlp", "bsp", **{knob: value})


class TestStoredRunIdentity:
    def test_every_catalog_scenario_has_a_pinned_hash(self):
        from repro.scenarios import scenario_names

        assert sorted(scenario_names()) == sorted(CATALOG_REQUEST_HASHES)

    @pytest.mark.parametrize("name", sorted(CATALOG_REQUEST_HASHES))
    def test_catalog_request_hash_is_unchanged(self, name):
        from repro.results.provenance import config_hash

        request = RunRequest(kind="scenario", scenario=name)
        assert config_hash(request.to_dict()) == CATALOG_REQUEST_HASHES[name]

    def test_ledger_request_hashes_are_unchanged(self):
        from repro.results.provenance import config_hash

        sweep = RunRequest(kind="sweep", workload="deep_mlp", algorithm="selsync",
                           grid={"delta": [0.0, 0.1, 0.3, 0.5]}, num_workers=16,
                           iterations=60, seed=7)
        experiment = request_from_action(
            "experiment",
            {"workload": "deep_mlp", "algorithm": "selsync", "num_workers": 8,
             "iterations": 150, "seed": 7, "params": {"delta": 0.25}},
        )
        assert config_hash(sweep.to_dict()) == "f45d2e68b88c4639"
        assert config_hash(experiment.to_dict()) == "f62f8822aa3aa263"

"""FaultScenario spec/runner gates and the façade/service fault plumbing."""

from __future__ import annotations

import pytest

from repro.api import ApiError, RunRequest, run as api_run
from repro.faults.schedule import crash, rejoin
from repro.scenarios import FaultScenario, ScenarioError, run_scenario

pytestmark = pytest.mark.faults


def tiny_fault_scenario(**overrides) -> FaultScenario:
    base = dict(
        name="tiny-fault",
        title="tiny fault replay",
        workload="deep_mlp",
        algorithm="selsync",
        events=(crash(1, 3), rejoin(1, 8)),
        checkpoint_every=4,
        num_workers=3,
        iterations=16,
        batch_size=4,
    )
    base.update(overrides)
    return FaultScenario(**base)


class TestFaultScenarioSpec:
    def test_kind_and_eval_cadence(self):
        scenario = tiny_fault_scenario()
        assert scenario.kind == "fault"
        assert [config.resolved_eval_every for _, config in scenario.runs] == [2, 2]
        assert tiny_fault_scenario(iterations=40).runs[0][1].resolved_eval_every == 5

    def test_unsupported_algorithm_rejected(self):
        with pytest.raises(
            ScenarioError,
            match=r"scenario 'tiny-fault': fault injection \(.*\) supports lockstep "
            r"algorithms .*, got 'ssp'",
        ):
            tiny_fault_scenario(algorithm="ssp")

    def test_some_fault_source_required(self):
        with pytest.raises(ScenarioError, match="fault"):
            tiny_fault_scenario(events=(), failure_rate=0.0, straggler_fraction=0.0)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(fault_seed=-1),
            dict(failure_rate=1.5),
            dict(straggler_fraction=-0.2),
            dict(mttr=0),
            dict(continuity_factor=0.0),
            dict(checkpoint_every=0),
        ],
    )
    def test_bad_fault_parameters_rejected(self, overrides):
        with pytest.raises(ScenarioError):
            tiny_fault_scenario(**overrides)

    def test_impossible_event_history_rejected_at_construction(self):
        with pytest.raises(ScenarioError):
            tiny_fault_scenario(events=(rejoin(0, 2),))

    def test_run_settings_are_not_params(self):
        with pytest.raises(ScenarioError, match=r"unknown selsync params \['failure_rate'\]"):
            tiny_fault_scenario(params={"failure_rate": 0.5})

    def test_slowdown_is_no_field(self):
        with pytest.raises(TypeError, match="slowdown"):
            tiny_fault_scenario(slowdown=3.0)

    def test_schedule_prefers_explicit_events(self):
        scenario = tiny_fault_scenario()
        assert [e.kind for e in scenario.schedule] == ["crash", "rejoin"]

    def test_schedule_generates_from_rates(self):
        scenario = tiny_fault_scenario(
            events=(), fault_seed=3, failure_rate=0.2, mttr=3
        )
        again = tiny_fault_scenario(events=(), fault_seed=3, failure_rate=0.2, mttr=3)
        assert scenario.schedule == again.schedule and len(scenario.schedule) > 0
        assert scenario.schedule == scenario.runs[0][1].fault_schedule()


class TestFaultRunner:
    def test_gates_pass_and_report_shape(self):
        report = run_scenario(tiny_fault_scenario())
        assert report.kind == "fault"
        assert report.meta["gates"] == {
            "deterministic_replay": True,
            "loss_continuity": True,
            "continuity_detail": "ok",
        }
        assert [r.params["attempt"] for r in report.records] == ["run", "replay"]
        assert report.records[0].to_dict()["metrics"] == (
            report.records[1].to_dict()["metrics"]
        )
        assert report.meta["fault_events"] == [
            {"step": 3, "kind": "crash", "worker": 1},
            {"step": 8, "kind": "rejoin", "worker": 1},
        ]

    def test_fault_seed_override_reseeds_generated_schedule(self):
        scenario = tiny_fault_scenario(events=(), fault_seed=0, failure_rate=0.1)
        a = run_scenario(scenario, fault_seed=4)
        b = run_scenario(scenario, fault_seed=4)
        assert a.meta["fault_seed"] == 4
        assert a.meta["fault_events"] == b.meta["fault_events"]

    def test_fault_seed_override_rejected_for_other_kinds(self):
        with pytest.raises(ScenarioError, match="fault"):
            run_scenario("quickstart", fault_seed=3, iterations=4)


class TestRunRequestFaultFields:
    def test_experiment_kind_runs_with_faults(self):
        out = api_run(RunRequest(
            kind="experiment",
            workload="deep_mlp",
            algorithm="bsp",
            iterations=8,
            fault_seed=2,
            failure_rate=0.1,
            mttr=3,
        ))
        assert out.meta["failure_rate"] == 0.1 and out.meta["fault_seed"] == 2
        assert "fault_crashes" in out.results["run"].extras

    @pytest.mark.parametrize("kind", ["sweep", "comparison", "throughput"])
    def test_fault_fields_forbidden_for_other_kinds(self, kind):
        kwargs = {
            "sweep": dict(workload="deep_mlp", algorithm="selsync",
                          grid={"delta": [0.0, 1.0]}),
            "comparison": dict(methods={"bsp": ("bsp", {})}),
            "throughput": dict(workloads=("resnet101",), worker_counts=(1, 2)),
        }[kind]
        with pytest.raises(ApiError, match=r"unknown request fields \['failure_rate'\]"):
            RunRequest(kind=kind, failure_rate=0.1, **kwargs)

    def test_invalid_fault_values_rejected(self):
        with pytest.raises(ApiError):
            RunRequest(kind="experiment", workload="deep_mlp", algorithm="bsp",
                       failure_rate=2.0)
        with pytest.raises(ApiError):
            RunRequest(kind="experiment", workload="deep_mlp", algorithm="bsp",
                       fault_seed=-1)
        with pytest.raises(ApiError):
            RunRequest(kind="experiment", workload="deep_mlp", algorithm="bsp",
                       mttr=0)

    def test_scenario_kind_fault_seed_needs_fault_scenario(self):
        with pytest.raises(ScenarioError, match="fault_seed"):
            RunRequest(kind="scenario", scenario="quickstart", fault_seed=1)


class TestServiceSchemas:
    def test_experiment_schema_gained_fault_fields(self):
        from repro.service.schemas import SCHEMAS

        props = SCHEMAS["experiment"]["properties"]
        for field in ("fault_seed", "failure_rate", "straggler_fraction", "mttr"):
            assert field in props
            assert not props[field]["required"]

    def test_scenario_schema_accepts_fault_seed(self):
        from repro.service.schemas import validate_payload

        validate_payload("scenario", {"name": "fault-replay-deep-mlp",
                                      "fault_seed": 3})

    def test_catalog_fault_scenarios_registered_with_tags(self):
        from repro.scenarios import get_scenario, scenario_names

        names = scenario_names(tag="faults")
        assert {
            "fault-replay-deep-mlp",
            "fault-random-deep-mlp-bsp",
            "fault-replay-transformer",
        } <= set(names)
        for name in names:
            scenario = get_scenario(name)
            assert "paper-scale" not in scenario.tags
            assert "nightly" in scenario.tags

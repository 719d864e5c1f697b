"""Controller-level tests: schemas, admission control, pagination, actions."""

import itertools

import pytest

from repro.api import RunResult
from repro.service import (
    DONE,
    QuotaManager,
    SCHEMAS,
    ServiceController,
    Store,
    TaskManager,
    TokenBucket,
    get_action,
    validate_payload,
)
from repro.service.exceptions import (
    BadRequest,
    Conflict,
    NotFound,
    QuotaExceeded,
    RateLimited,
)


def fake_runner(request, cancel_check=None):
    records = [
        {"params": {"i": i}, "label": f"r{i}", "metrics": {"final_loss": 0.1 * i}}
        for i in range(5)
    ]
    return RunResult(kind=request.kind, label="fake", records=records, meta={"ok": True})


def make_controller(*, quotas=None, runner=fake_runner):
    store = Store()
    tm = TaskManager(store, runner=runner)
    return ServiceController(store, tm, quotas=quotas or QuotaManager(rate=None)), store, tm


SCENARIO_BODY = {"scenario": {"name": "quickstart"}}


class TestSchemas:
    def test_every_action_has_a_schema(self):
        assert set(SCHEMAS) == {"experiment", "sweep", "comparison", "throughput", "scenario"}
        for schema in SCHEMAS.values():
            assert schema["type"] == "object"
            assert not schema["additionalProperties"]

    def test_schemas_track_the_frozen_dataclasses(self):
        # derived, not hand-maintained: dataclass fields appear as properties
        assert "verify_endpoints" in SCHEMAS["sweep"]["properties"]
        assert "convergence_patience" in SCHEMAS["comparison"]["properties"]
        assert "worker_counts" in SCHEMAS["throughput"]["properties"]
        # one spelling: the dataclasses' own 'params' field
        assert "params" in SCHEMAS["sweep"]["properties"]
        assert "params" in SCHEMAS["experiment"]["properties"]
        assert "fixed" not in SCHEMAS["sweep"]["properties"]
        # the service names ad-hoc scenarios itself
        assert "name" not in SCHEMAS["sweep"]["properties"]

    def test_get_action_requires_exactly_one_key(self):
        with pytest.raises(BadRequest):
            get_action({})
        with pytest.raises(BadRequest):
            get_action({"sweep": {}, "scenario": {}})
        with pytest.raises(BadRequest):
            get_action({"frobnicate": {}})
        with pytest.raises(BadRequest):
            get_action({"sweep": "not an object"})

    def test_validate_payload_type_checks(self):
        validate_payload("scenario", {"name": "quickstart", "iterations": 5})
        for bad in (
            {"name": 7},
            {"name": "x", "iterations": "many"},
            {"name": "x", "stacked": 1},
            {"name": "x", "bogus": True},
            {},
        ):
            with pytest.raises(BadRequest):
                validate_payload("scenario", bad)


class TestSubmission:
    def test_submit_validates_then_queues(self):
        controller, store, _ = make_controller()
        out = controller.submit("t1", SCENARIO_BODY)
        job = out["job"]
        assert job["state"] == "QUEUED"
        assert job["action"] == "scenario"
        assert job["request"] == {"kind": "scenario", "scenario": "quickstart"}
        assert store.get(job["id"]).tenant == "t1"

    def test_deep_validation_rejects_at_submit_time(self):
        controller, store, _ = make_controller()
        bad_bodies = [
            {"sweep": {"workload": "nope", "algorithm": "selsync", "grid": {"delta": [0.1]}}},
            {"scenario": {"name": "no-such-scenario"}},
            {"comparison": {"methods": {"a": ["bsp", {}]}, "baseline": "missing"}},
        ]
        for body in bad_bodies:
            with pytest.raises(BadRequest):
                controller.submit("t1", body)
        assert store.list_jobs()[0] == []  # nothing queued

    def test_removed_aliases_are_unknown_fields(self):
        controller, store, _ = make_controller()
        body = {"experiment": {"workload": "resnet101", "algo": "bsp", "workers": 2}}
        with pytest.raises(BadRequest, match=r"unknown fields \['algo', 'workers'\]"):
            controller.submit("t1", body)
        assert store.list_jobs()[0] == []
        body = {"experiment": {"workload": "resnet101", "algorithm": "bsp", "num_workers": 2}}
        job = controller.submit("t1", body)["job"]
        assert job["request"]["algorithm"] == "bsp"
        assert job["request"]["num_workers"] == 2

    def test_submit_and_execute_round_trip(self):
        controller, store, tm = make_controller()
        job = controller.submit("t1", SCENARIO_BODY)["job"]
        assert tm.run_pending_once() == 1
        shown = controller.show("t1", job["id"])["job"]
        assert shown["state"] == DONE
        assert shown["num_records"] == 5


#: One valid submission body per action.
VALID_BODIES = {
    "experiment": {"workload": "resnet101", "algorithm": "bsp"},
    "sweep": {"workload": "deep_mlp", "grid": {"delta": [0.1]}},
    "comparison": {"methods": {"bsp": ["bsp", {}]}},
    "throughput": {"workloads": ["resnet101"]},
    "scenario": {"name": "quickstart"},
}

REMOVED_KNOBS = [
    ("pool_workers", 2), ("pool_start_method", "fork"),
    ("stacked", True), ("max_stacked_rows", 8),
]


class TestRemovedKnobs:
    @pytest.mark.parametrize("action", sorted(VALID_BODIES))
    def test_no_schema_offers_them(self, action):
        names = {name for name, _ in REMOVED_KNOBS}
        assert not names & set(SCHEMAS[action]["properties"])

    @pytest.mark.parametrize("action", sorted(VALID_BODIES))
    @pytest.mark.parametrize("knob, value", REMOVED_KNOBS)
    def test_submit_is_a_structured_400_and_queues_nothing(self, knob, value, action):
        controller, store, _ = make_controller()
        controller.submit("t1", {action: VALID_BODIES[action]})
        with pytest.raises(BadRequest) as excinfo:
            controller.submit("t1", {action: {**VALID_BODIES[action], knob: value}})
        assert excinfo.value.details == {"unknown": [knob]}
        assert len(store.list_jobs()[0]) == 1   # only the valid submission


class TestTenantIsolation:
    def test_show_and_records_are_tenant_scoped(self):
        controller, _, tm = make_controller()
        job = controller.submit("alice", SCENARIO_BODY)["job"]
        tm.run_pending_once()
        with pytest.raises(NotFound):
            controller.show("bob", job["id"])
        with pytest.raises(NotFound):
            controller.records("bob", job["id"])
        assert controller.show("alice", job["id"])["job"]["id"] == job["id"]

    def test_index_only_lists_own_jobs(self):
        controller, _, _ = make_controller()
        controller.submit("alice", SCENARIO_BODY)
        controller.submit("bob", SCENARIO_BODY)
        alice = controller.index("alice")["jobs"]
        assert len(alice) == 1 and alice[0]["tenant"] == "alice"

    def test_cancel_is_tenant_scoped(self):
        controller, _, _ = make_controller()
        job = controller.submit("alice", SCENARIO_BODY)["job"]
        with pytest.raises(NotFound):
            controller.job_action("bob", job["id"], {"cancel": {}})


class TestPagination:
    def test_marker_pagination_walks_all_jobs(self):
        controller, _, _ = make_controller(quotas=QuotaManager(max_active_jobs=None, rate=None))
        ids = [controller.submit("t", SCENARIO_BODY)["job"]["id"] for _ in range(7)]
        seen, marker = [], None
        while True:
            page = controller.index("t", marker=marker, limit=3)
            seen.extend(job["id"] for job in page["jobs"])
            marker = page.get("next_marker")
            if marker is None:
                break
        assert seen == ids

    def test_record_pagination_covers_all_records_in_order(self):
        controller, _, tm = make_controller()
        job = controller.submit("t", SCENARIO_BODY)["job"]
        tm.run_pending_once()
        first = controller.records("t", job["id"], limit=2)
        assert first["count"] == 2 and first["total"] == 5
        rest = controller.records("t", job["id"], offset=2, limit=50)
        labels = [r["label"] for r in first["records"] + rest["records"]]
        assert labels == [f"r{i}" for i in range(5)]

    def test_pagination_parameter_validation(self):
        controller, _, _ = make_controller()
        job = controller.submit("t", SCENARIO_BODY)["job"]
        with pytest.raises(BadRequest):
            controller.index("t", limit="lots")
        with pytest.raises(BadRequest):
            controller.index("t", limit=0)
        with pytest.raises(BadRequest):
            controller.index("t", state="SLEEPING")
        with pytest.raises(BadRequest):
            controller.records("t", job["id"], offset=-1)


class TestJobActions:
    def test_cancel_action_on_queued_job(self):
        controller, _, _ = make_controller()
        job = controller.submit("t", SCENARIO_BODY)["job"]
        out = controller.job_action("t", job["id"], {"cancel": {}})
        assert out["job"]["state"] == "CANCELLED"

    def test_cancel_terminal_job_conflicts(self):
        controller, _, tm = make_controller()
        job = controller.submit("t", SCENARIO_BODY)["job"]
        tm.run_pending_once()
        with pytest.raises(Conflict):
            controller.job_action("t", job["id"], {"cancel": {}})

    def test_unknown_or_malformed_actions_rejected(self):
        controller, _, _ = make_controller()
        job = controller.submit("t", SCENARIO_BODY)["job"]
        with pytest.raises(BadRequest):
            controller.job_action("t", job["id"], {"explode": {}})
        with pytest.raises(BadRequest):
            controller.job_action("t", job["id"], {"cancel": {}, "also": {}})


class TestQuotasAndRateLimits:
    def test_active_job_quota(self):
        quotas = QuotaManager(max_active_jobs=2, rate=None)
        controller, _, tm = make_controller(quotas=quotas)
        controller.submit("t", SCENARIO_BODY)
        controller.submit("t", SCENARIO_BODY)
        with pytest.raises(QuotaExceeded):
            controller.submit("t", SCENARIO_BODY)
        # other tenants are unaffected
        controller.submit("other", SCENARIO_BODY)
        # finishing jobs frees the quota
        tm.run_pending_once()
        controller.submit("t", SCENARIO_BODY)

    def test_token_bucket_rate_limit_and_refill(self):
        clock = FakeClock()
        quotas = QuotaManager(max_active_jobs=None, rate=1.0, burst=2.0, clock=clock)
        controller, _, _ = make_controller(quotas=quotas)
        controller.submit("t", SCENARIO_BODY)
        controller.submit("t", SCENARIO_BODY)
        with pytest.raises(RateLimited) as excinfo:
            controller.submit("t", SCENARIO_BODY)
        assert excinfo.value.details["retry_after"] > 0
        clock.advance(1.0)  # one token refilled
        controller.submit("t", SCENARIO_BODY)

    def test_buckets_are_per_tenant(self):
        clock = FakeClock()
        quotas = QuotaManager(max_active_jobs=None, rate=1.0, burst=1.0, clock=clock)
        controller, _, _ = make_controller(quotas=quotas)
        controller.submit("a", SCENARIO_BODY)
        controller.submit("b", SCENARIO_BODY)  # b's bucket is untouched by a
        with pytest.raises(RateLimited):
            controller.submit("a", SCENARIO_BODY)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_steady_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
        assert all(bucket.try_acquire() for _ in range(4))
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 1 token
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)
        grabbed = list(itertools.takewhile(lambda _: bucket.try_acquire(), range(10)))
        assert len(grabbed) == 3

    def test_retry_after_estimate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.retry_after() == 0.0
        assert bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.5)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            QuotaManager(max_active_jobs=0)


class TestIntrospection:
    def test_describe_lists_actions_schemas_and_scenarios(self):
        controller, _, _ = make_controller()
        desc = controller.describe()
        assert desc["actions"] == sorted(SCHEMAS)
        assert "quickstart" in desc["scenarios"]
        assert desc["quotas"]["rate"] is None
        assert desc["taskmanager"]["workers"] == 2

    def test_health(self):
        controller, _, _ = make_controller()
        assert controller.health()["status"] == "ok"

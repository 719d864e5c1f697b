"""End-to-end HTTP tests: submit → poll → paginate → cancel over real sockets.

The parity test is the PR's acceptance criterion: records fetched through
the HTTP API must be byte-identical (as canonical JSON) to a direct
:func:`repro.scenarios.run_scenario` call with the same overrides.
"""

import json
import signal
import sqlite3
import threading
import time

import pytest

from repro.api import RunResult
from repro.scenarios import run_scenario
from repro.service import (
    ExperimentService,
    QuotaManager,
    ServiceClient,
    ServiceClientError,
    serve,
)


@pytest.fixture()
def service():
    svc = ExperimentService(
        port=0, workers=2, quotas=QuotaManager(max_active_jobs=None, rate=None)
    )
    svc.start()
    try:
        yield svc
    finally:
        svc.stop()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestEndToEnd:
    def test_submit_poll_paginate_matches_direct_run_scenario(self, service):
        client = ServiceClient(service.url, tenant="e2e")
        job = client.submit("scenario", {"name": "quickstart", "iterations": 30})
        assert job["state"] in ("QUEUED", "RUNNING")
        done = client.wait(job["id"], timeout=180)
        assert done["state"] == "DONE"
        assert done["num_records"] == 2

        # paginate one record at a time through HTTP
        http_records = list(client.iter_records(job["id"], page_size=1))

        # the same run, executed directly in-process
        direct = run_scenario("quickstart", iterations=30).to_dict()

        assert canonical(http_records) == canonical(direct["records"])
        # the served meta carries the same run description
        assert done["meta"]["iterations"] == direct["meta"]["iterations"] == 30

    def test_analytic_throughput_round_trip(self, service):
        client = ServiceClient(service.url)
        job = client.submit(
            "throughput", {"workloads": ["resnet101"], "worker_counts": [1, 2, 4]}
        )
        done = client.wait(job["id"], timeout=30)
        assert done["state"] == "DONE"
        page = client.records(job["id"], limit=2)
        assert page["total"] == 3 and page["count"] == 2
        rest = client.records(job["id"], offset=2)
        workers = [r["params"]["workers"] for r in page["records"] + rest["records"]]
        assert workers == [1, 2, 4]

    def test_records_keep_every_key(self):
        """A traced record's ``phases`` survive the run store and the HTTP page."""
        record = {
            "params": {"delta": 0.3}, "label": "selsync",
            "metrics": {"final_loss": 0.25},
            "phases": {"engine.forward": {"seconds": 0.5, "calls": 3}},
        }

        def runner(request, cancel_check=None):
            return RunResult(kind=request.kind, label="traced", records=[record])

        with ExperimentService(port=0, workers=1, runner=runner) as svc:
            client = ServiceClient(svc.url)
            job = client.submit("scenario", {"name": "quickstart"})
            assert client.wait(job["id"], timeout=30)["state"] == "DONE"
            over_http = client.records(job["id"])["records"]
            run = svc.runs.job_run(job["id"])
            stored, total = svc.runs.get_records(run.run_id)
        assert over_http == stored == [record] and total == 1

    def test_cancel_running_job_over_http(self):
        started, proceed = threading.Event(), threading.Event()

        def slow_runner(request, cancel_check=None):
            from repro.scenarios.runner import _check_cancelled

            started.set()
            for _ in range(200):
                if proceed.wait(0.05):
                    pass
                _check_cancelled(cancel_check)
            return RunResult(kind=request.kind, label="slow", records=[])

        svc = ExperimentService(
            port=0,
            workers=1,
            runner=slow_runner,
            quotas=QuotaManager(max_active_jobs=None, rate=None),
        )
        svc.start()
        try:
            client = ServiceClient(svc.url)
            job = client.submit("scenario", {"name": "quickstart"})
            assert started.wait(10)
            cancelled = client.cancel(job["id"])
            assert cancelled["cancel_requested"]
            final = client.wait(job["id"], timeout=30)
            assert final["state"] == "CANCELLED"
        finally:
            proceed.set()
            svc.stop()

    def test_cancel_queued_job_over_http(self, service):
        # stall the single pipeline with a long job? simpler: submit many and
        # cancel one that is still queued (2 workers, so queue 6 quickly)
        client = ServiceClient(service.url)
        jobs = [
            client.submit("throughput", {"workloads": ["resnet101"]})["id"]
            for _ in range(3)
        ]
        # throughput jobs are near-instant; cancelling may conflict if DONE.
        outcomes = set()
        for job_id in jobs:
            try:
                outcomes.add(client.cancel(job_id)["state"])
            except ServiceClientError as exc:
                assert exc.status == 409
                outcomes.add("terminal")
        assert outcomes <= {"CANCELLED", "RUNNING", "terminal"}


class TestServe:
    def test_serve_runs_jobs_until_ctrl_c_then_stops(self, tmp_path, monkeypatch, capsys):
        """``serve()`` blocks serving jobs; Ctrl-C stops it and closes both stores."""
        services = []
        real_start = ExperimentService.start

        def recording_start(self):
            services.append(real_start(self))
            return self

        monkeypatch.setattr(ExperimentService, "start", recording_start)
        outcome = {}

        def drive():
            try:
                deadline = time.monotonic() + 10
                while not services and time.monotonic() < deadline:
                    time.sleep(0.01)
                outcome["url"] = services[0].url
                client = ServiceClient(outcome["url"], tenant="cli")
                job = client.submit(
                    "throughput", {"workloads": ["resnet101"], "worker_counts": [1, 2]}
                )
                outcome["done"] = client.wait(job["id"], timeout=30)
                outcome["records"] = list(client.iter_records(job["id"]))
            finally:
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        # A runner started in the background may inherit SIGINT ignored.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        client_thread = threading.Thread(target=drive)
        try:
            client_thread.start()
            serve(
                port=0,
                db_path=str(tmp_path / "jobs.sqlite3"),
                workers=1,
                results_db=str(tmp_path / "results.sqlite3"),
            )
        finally:
            client_thread.join(10)
            signal.signal(signal.SIGINT, previous)
        assert not client_thread.is_alive()
        service = services[0]
        assert f"listening on {outcome['url']} " in capsys.readouterr().out
        assert outcome["done"]["state"] == "DONE"
        assert [r["params"]["workers"] for r in outcome["records"]] == [1, 2]
        # Ctrl-C stopped the HTTP server and closed both stores.
        assert not service.taskmanager.running
        with pytest.raises(RuntimeError, match="not started"):
            service.url
        for store in (service.store, service.runs):
            with pytest.raises(sqlite3.ProgrammingError):
                store._conn.execute("SELECT 1")


class TestHttpErrors:
    def test_validation_errors_are_structured_400s(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("sweep", {"workload": "resnet101"})
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert "grid" in str(excinfo.value)

    def test_unknown_job_is_404(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("deadbeef")
        assert excinfo.value.status == 404
        # The error response was read and closed by the client, so the
        # chained HTTPError does not hold the connection's socket open.
        assert excinfo.value.__cause__.fp.closed

    @pytest.mark.parametrize(
        "knob, value",
        [("stacked", True), ("max_stacked_rows", 8),
         ("pool_workers", 2), ("pool_start_method", "fork")],
    )
    def test_removed_sweep_knob_is_a_400_and_queues_nothing(self, service, knob, value):
        client = ServiceClient(service.url, tenant="knobs")
        body = {"workload": "deep_mlp", "grid": {"delta": [0.1]}, knob: value}
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("sweep", body)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"
        assert excinfo.value.body["error"]["details"] == {"unknown": [knob]}
        assert client.jobs()["jobs"] == []

    def test_removed_scenario_override_is_a_400(self, service):
        client = ServiceClient(service.url, tenant="knobs")
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit("scenario", {"name": "deep-mlp-delta-n64", "stacked": True})
        assert excinfo.value.status == 400
        assert excinfo.value.body["error"]["details"] == {"unknown": ["stacked"]}
        assert client.jobs()["jobs"] == []

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: c.describe(),
            lambda c: c.health(),
            lambda c: c.metrics(),
            lambda c: c.jobs(),
            lambda c: c.records("deadbeef"),
            lambda c: c.history_scenarios(),
            lambda c: c.submit("scenario", {"name": "quickstart"}),
        ],
        ids=["describe", "health", "metrics", "jobs", "records", "history", "submit"],
    )
    def test_every_endpoint_closes_its_error_response(self, service, call):
        # Under a wrong prefix every route is a 404; each client method must
        # hand back an error whose chained HTTPError no longer holds a socket.
        client = ServiceClient(service.url + "/nowhere")
        with pytest.raises(ServiceClientError) as excinfo:
            call(client)
        assert excinfo.value.status == 404
        assert excinfo.value.__cause__.fp.closed

    def test_unknown_marker_is_404_on_both_listings(self, service):
        client = ServiceClient(service.url, tenant="markers")
        job = client.submit("throughput", {"workloads": ["resnet101"], "worker_counts": [1]})
        assert client.wait(job["id"], timeout=30)["state"] == "DONE"
        assert client.jobs(marker=job["id"])["jobs"] == []
        scenario = client.history_scenarios()["scenarios"][0]
        for call in (
            lambda: client.jobs(marker="bogus"),
            lambda: client.history_runs(scenario, marker="bogus"),
        ):
            with pytest.raises(ServiceClientError) as excinfo:
                call()
            assert excinfo.value.status == 404
            assert excinfo.value.code == "not_found"
            assert "bogus" in str(excinfo.value)

    def test_unknown_route_is_404_and_bad_method_405(self, service):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(service.url + "/v2/everything")
        excinfo.value.close()
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            service.url + "/v1/jobs/abc", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        excinfo.value.close()
        assert excinfo.value.code == 405

    def test_rate_limit_maps_to_429(self):
        svc = ExperimentService(
            port=0, workers=1, quotas=QuotaManager(max_active_jobs=None, rate=0.001, burst=1.0)
        )
        svc.start()
        try:
            client = ServiceClient(svc.url)
            client.submit("throughput", {"workloads": ["resnet101"]})
            with pytest.raises(ServiceClientError) as excinfo:
                client.submit("throughput", {"workloads": ["resnet101"]})
            assert excinfo.value.status == 429
            assert excinfo.value.body["error"]["details"]["retry_after"] > 0
        finally:
            svc.stop()

    def test_describe_and_health_endpoints(self, service):
        client = ServiceClient(service.url)
        desc = client.describe()
        assert "sweep" in desc["actions"]
        assert "quickstart" in desc["scenarios"]
        assert client.health()["status"] == "ok"

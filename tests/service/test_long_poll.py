"""Long-poll job status: ``GET /v1/jobs/<id>?wait=S`` and ``ServiceClient.wait``.

A held status read answers the moment its job reaches a terminal state (a
finish, or the cancel of a queued job), or with the current state once ``S``
seconds pass; ``stop()`` releases it.  Jobs are driven by a fake runner gated
on an :class:`threading.Event`, so every transition happens when the test
says so.
"""

import json
import threading
import time
from wsgiref.simple_server import WSGIRequestHandler, make_server

import pytest

from repro.api import RunResult
from repro.service import (
    QUEUED,
    RUNNING,
    ExperimentService,
    QuotaManager,
    ServiceClient,
    ServiceClientError,
    ServiceController,
    Store,
    TaskManager,
)
from repro.service.controller import MAX_WAIT_S

REQUEST = {"kind": "scenario", "scenario": "quickstart"}
BODY = {"name": "quickstart"}


@pytest.fixture()
def gated():
    """A one-worker service whose jobs run until ``gate`` is set."""
    started, gate = threading.Event(), threading.Event()

    def runner(request, cancel_check=None):
        started.set()
        gate.wait(30)
        return RunResult(kind=request.kind, label="gated", records=[])

    svc = ExperimentService(
        port=0, workers=1, runner=runner, quotas=QuotaManager(max_active_jobs=None, rate=None)
    )
    svc.start()
    try:
        yield svc, started, gate
    finally:
        gate.set()
        svc.stop()


def held(client, job_id, wait):
    """Run ``client.job(job_id, wait=wait)`` on a thread; returns (thread, outcome)."""
    outcome = {}

    def call():
        start = time.monotonic()
        try:
            outcome["job"] = client.job(job_id, wait=wait)
        except ServiceClientError as exc:
            outcome["error"] = exc
        outcome["elapsed"] = time.monotonic() - start
        outcome["returned_at"] = time.time()

    thread = threading.Thread(target=call)
    thread.start()
    return thread, outcome


def finish(thread):
    thread.join(5)
    assert not thread.is_alive()


class CountingClient(ServiceClient):
    """Records when each status request is sent."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.asked = []

    def job(self, job_id, *, wait=None):
        self.asked.append(time.monotonic())
        return super().job(job_id, wait=wait)


class TestHeldRead:
    def test_answers_within_ms_of_the_terminal_transition(self, gated):
        svc, started, gate = gated
        client = ServiceClient(svc.url)
        job = client.submit("scenario", BODY)
        assert started.wait(10)
        thread, outcome = held(client, job["id"], wait=10)
        time.sleep(0.3)
        assert thread.is_alive()  # held, not answered
        gate.set()
        finish(thread)
        view = outcome["job"]
        assert view["state"] == "DONE"
        assert outcome["elapsed"] >= 0.3
        # Woken by the transition, not by the 10 s hold running out.
        assert outcome["returned_at"] - view["finished_at"] < 0.25

    def test_expired_hold_returns_the_current_state_after_s(self, gated):
        svc, started, _ = gated
        client = ServiceClient(svc.url)
        job = client.submit("scenario", BODY)
        assert started.wait(10)
        start = time.monotonic()
        view = client.job(job["id"], wait=0.3)
        elapsed = time.monotonic() - start
        assert view["state"] == RUNNING
        assert 0.3 <= elapsed < 1.3

    def test_terminal_job_answers_at_once(self, gated):
        svc, _, gate = gated
        gate.set()
        client = ServiceClient(svc.url)
        job = client.submit("scenario", BODY)
        assert client.wait(job["id"], timeout=10)["state"] == "DONE"
        start = time.monotonic()
        assert client.job(job["id"], wait=10)["state"] == "DONE"
        assert time.monotonic() - start < 1.0

    def test_cancelling_a_queued_job_wakes_its_waiters(self, gated):
        svc, started, _ = gated
        client = ServiceClient(svc.url)
        client.submit("scenario", BODY)  # occupies the one worker
        assert started.wait(10)
        queued = client.submit("scenario", BODY)
        waiters = [held(client, queued["id"], wait=10) for _ in range(2)]
        time.sleep(0.3)
        assert all(thread.is_alive() for thread, _ in waiters)
        cancelled_at = time.time()
        assert client.cancel(queued["id"])["state"] == "CANCELLED"
        for thread, outcome in waiters:
            finish(thread)
            assert outcome["job"]["state"] == "CANCELLED"
            assert outcome["returned_at"] - cancelled_at < 0.5

    def test_stop_releases_a_held_request(self, gated):
        svc, started, gate = gated
        client = ServiceClient(svc.url)
        client.submit("scenario", BODY)  # occupies the one worker
        assert started.wait(10)
        # A job no worker of this process will ever finish, as if another
        # process were running it.
        orphan = svc.store.create("default", "scenario", REQUEST)
        svc.store.transition(orphan.id, QUEUED, RUNNING)
        thread, outcome = held(client, orphan.id, wait=10)
        time.sleep(0.3)
        assert thread.is_alive()
        gate.set()
        start = time.monotonic()
        svc.stop()
        finish(thread)
        assert outcome["job"]["state"] == RUNNING
        assert time.monotonic() - start < 3.0
        assert outcome["elapsed"] < 5.0

    def test_other_tenants_job_is_a_404_without_a_hold(self, gated):
        svc, _, _ = gated
        job = ServiceClient(svc.url, tenant="alice").submit("scenario", BODY)
        bob = ServiceClient(svc.url, tenant="bob")
        for job_id in (job["id"], "deadbeef"):
            start = time.monotonic()
            with pytest.raises(ServiceClientError) as excinfo:
                bob.job(job_id, wait=10)
            assert excinfo.value.status == 404
            assert time.monotonic() - start < 1.0


class TestWaitParameter:
    @pytest.mark.parametrize("raw", ["abc", "-1", "nan", "inf", "-inf"])
    def test_malformed_wait_is_a_400(self, gated, raw):
        svc, _, _ = gated
        client = ServiceClient(svc.url)
        job = client.submit("scenario", BODY)
        with pytest.raises(ServiceClientError) as excinfo:
            client.job(job["id"], wait=raw)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_request"

    def test_huge_wait_is_capped(self, monkeypatch):
        store = Store()
        controller = ServiceController(store, TaskManager(store))
        job = store.create("t", "scenario", REQUEST)
        timeouts = []
        real = store.wait_terminal

        def spy(job_id, *, tenant, timeout):
            timeouts.append(timeout)
            return real(job_id, tenant=tenant, timeout=0)

        monkeypatch.setattr(store, "wait_terminal", spy)
        assert controller.show("t", job.id, wait="1e9")["job"]["state"] == QUEUED
        assert timeouts == [MAX_WAIT_S]
        # A held read must end before the client's socket gives up on it.
        assert MAX_WAIT_S < ServiceClient("http://127.0.0.1:1").timeout


class TestClientWait:
    def test_wait_is_one_held_request_per_poll_interval(self, gated):
        svc, started, gate = gated
        client = CountingClient(svc.url)
        job = client.submit("scenario", BODY)
        assert started.wait(10)
        threading.Timer(0.3, gate.set).start()
        start = time.monotonic()
        view = client.wait(job["id"], timeout=30, poll_interval=5.0)
        assert view["state"] == "DONE"
        assert time.monotonic() - start < 2.0
        assert len(client.asked) == 1

    def test_at_most_one_request_per_poll_interval_without_holds(self):
        # A server that answers every status read at once: job "j" is DONE
        # from its fifth read on, job "never" stays RUNNING.
        queries = []

        def app(environ, start_response):
            queries.append(environ["QUERY_STRING"])
            done = environ["PATH_INFO"] == "/v1/jobs/j" and len(queries) >= 5
            body = json.dumps({"job": {"state": "DONE" if done else "RUNNING"}})
            payload = body.encode("utf-8")
            start_response(
                "200 OK",
                [("Content-Type", "application/json"), ("Content-Length", str(len(payload)))],
            )
            return [payload]

        class Quiet(WSGIRequestHandler):
            def log_message(self, *args):
                pass

        server = make_server("127.0.0.1", 0, app, handler_class=Quiet)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            client = CountingClient(url)
            assert client.wait("j", timeout=30, poll_interval=0.05)["state"] == "DONE"
            assert len(client.asked) == 5
            assert all(query.startswith("wait=") for query in queries)
            gaps = [later - earlier for earlier, later in zip(client.asked, client.asked[1:])]
            assert min(gaps) >= 0.05 - 1e-3

            patient = CountingClient(url)
            with pytest.raises(TimeoutError):
                patient.wait("never", timeout=0.3, poll_interval=0.1)
            assert len(patient.asked) <= 4  # at 0, 0.1, 0.2 and the deadline
        finally:
            server.shutdown()
            server.server_close()
            thread.join(5)

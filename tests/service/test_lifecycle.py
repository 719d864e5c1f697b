"""Job lifecycle state machine: transitions, races, failure capture, restarts."""

import itertools
import sqlite3
import threading

import pytest

from repro.api import RunResult
from repro.scenarios.runner import RunCancelled
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    QUEUED,
    RUNNING,
    TRANSITIONS,
    Store,
    TaskManager,
    validate_transition,
)
from repro.service.exceptions import Conflict, IllegalTransition, NotFound
from repro.service.store import SCHEMA_VERSION

REQUEST = {"kind": "scenario", "scenario": "quickstart"}


def make_store(path=":memory:"):
    return Store(path)


def ok_runner(request, cancel_check=None):
    return RunResult(
        kind=request.kind,
        label="fake",
        records=[{"params": {}, "label": "fake", "metrics": {"final_loss": 0.5}}],
        meta={"fake": True},
    )


class TestStateMachine:
    def test_every_legal_and_illegal_transition(self):
        legal = {(old, new) for old, news in TRANSITIONS.items() for new in news}
        assert legal == {
            (QUEUED, RUNNING),
            (QUEUED, CANCELLED),
            (RUNNING, DONE),
            (RUNNING, FAILED),
            (RUNNING, CANCELLED),
        }
        for old, new in itertools.product(JOB_STATES, JOB_STATES):
            if (old, new) in legal:
                validate_transition(old, new)  # must not raise
            else:
                with pytest.raises(IllegalTransition):
                    validate_transition(old, new)

    def test_unknown_states_rejected(self):
        with pytest.raises(IllegalTransition):
            validate_transition("LIMBO", DONE)
        with pytest.raises(IllegalTransition):
            validate_transition(QUEUED, "LIMBO")

    def test_terminal_states_have_no_exits(self):
        for state in (DONE, FAILED, CANCELLED):
            assert TRANSITIONS[state] == frozenset()


class TestStoreTransitions:
    def test_happy_path_stamps_timestamps(self):
        store = make_store()
        job = store.create("t", "scenario", REQUEST)
        assert job.state == QUEUED and job.created_at > 0
        running = store.transition(job.id, QUEUED, RUNNING)
        assert running.state == RUNNING and running.started_at is not None
        done = store.transition(job.id, RUNNING, DONE)
        assert done.state == DONE and done.finished_at is not None

    def test_transition_requires_current_state(self):
        store = make_store()
        job = store.create("t", "scenario", REQUEST)
        with pytest.raises(IllegalTransition):
            store.transition(job.id, RUNNING, DONE)  # still QUEUED
        assert store.get(job.id).state == QUEUED

    def test_illegal_transition_is_rejected_before_touching_the_db(self):
        store = make_store()
        job = store.create("t", "scenario", REQUEST)
        with pytest.raises(IllegalTransition):
            store.transition(job.id, QUEUED, DONE)
        assert store.get(job.id).state == QUEUED

    def test_transition_on_missing_job_raises_not_found(self):
        store = make_store()
        with pytest.raises(NotFound):
            store.transition("nope", QUEUED, RUNNING)

    def test_claim_next_is_fifo_and_exhausts(self):
        store = make_store()
        first = store.create("t", "scenario", REQUEST)
        second = store.create("t", "scenario", REQUEST)
        assert store.claim_next().id == first.id
        assert store.claim_next().id == second.id
        assert store.claim_next() is None

    def test_concurrent_claims_never_double_claim(self):
        store = make_store()
        ids = {store.create("t", "scenario", REQUEST).id for _ in range(20)}
        claimed, lock = [], threading.Lock()

        def worker():
            while True:
                job = store.claim_next()
                if job is None:
                    return
                with lock:
                    claimed.append(job.id)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(ids)
        assert len(set(claimed)) == len(claimed)


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self):
        store = make_store()
        job = store.create("t", "scenario", REQUEST)
        cancelled = store.request_cancel(job.id)
        assert cancelled.state == CANCELLED
        assert store.claim_next() is None

    def test_cancel_running_job_only_sets_the_flag(self):
        store = make_store()
        job = store.create("t", "scenario", REQUEST)
        store.claim_next()
        flagged = store.request_cancel(job.id)
        assert flagged.state == RUNNING and flagged.cancel_requested
        assert store.cancel_requested(job.id)

    def test_cancel_terminal_job_conflicts(self):
        store = make_store()
        job = store.create("t", "scenario", REQUEST)
        store.claim_next()
        store.transition(job.id, RUNNING, DONE)
        with pytest.raises(Conflict):
            store.request_cancel(job.id)

    def test_worker_honours_cancel_between_runs(self):
        store = make_store()

        def cancelling_runner(request, cancel_check=None):
            # the façade polls cancel_check between runs; emulate one poll
            if cancel_check():
                raise RunCancelled("cancelled")
            return ok_runner(request)

        tm = TaskManager(store, runner=cancelling_runner)
        job = store.create("t", "scenario", REQUEST)
        claimed = store.claim_next()
        store.request_cancel(job.id)
        final = tm.execute(claimed)
        assert final.state == CANCELLED

    def test_done_wins_the_cancel_race(self):
        """A cancel landing after the worker's last poll is a no-op on state."""
        store = make_store()
        started, proceed = threading.Event(), threading.Event()

        def slow_runner(request, cancel_check=None):
            started.set()
            assert proceed.wait(5)
            return ok_runner(request)  # never re-polls: completes normally

        tm = TaskManager(store, runner=slow_runner)
        job = store.create("t", "scenario", REQUEST)
        claimed = store.claim_next()
        thread = threading.Thread(target=tm.execute, args=(claimed,))
        thread.start()
        assert started.wait(5)
        flagged = store.request_cancel(job.id)  # racing cancel: flag only
        assert flagged.state == RUNNING and flagged.cancel_requested
        proceed.set()
        thread.join(5)
        final = store.get(job.id)
        assert final.state == DONE
        assert final.cancel_requested  # the late flag survives for audit
        assert final.num_records == 1

    def test_cancel_wins_when_worker_polls_in_time(self):
        store = make_store()
        started, proceed = threading.Event(), threading.Event()

        def polling_runner(request, cancel_check=None):
            started.set()
            assert proceed.wait(5)
            if cancel_check():
                raise RunCancelled("cancelled mid-run")
            return ok_runner(request)

        tm = TaskManager(store, runner=polling_runner)
        job = store.create("t", "scenario", REQUEST)
        claimed = store.claim_next()
        thread = threading.Thread(target=tm.execute, args=(claimed,))
        thread.start()
        assert started.wait(5)
        store.request_cancel(job.id)
        proceed.set()
        thread.join(5)
        assert store.get(job.id).state == CANCELLED


class TestFailureCapture:
    def test_worker_exception_becomes_failed_with_error(self):
        store = make_store()

        def broken_runner(request, cancel_check=None):
            raise RuntimeError("the cluster caught fire")

        tm = TaskManager(store, runner=broken_runner)
        store.create("t", "scenario", REQUEST)
        assert tm.run_pending_once() == 1
        job = store.list_jobs()[0][0]
        assert job.state == FAILED
        assert "RuntimeError: the cluster caught fire" in job.error

    def test_invalid_persisted_request_fails_cleanly(self):
        store = make_store()
        tm = TaskManager(store, runner=ok_runner)
        store.create("t", "scenario", {"kind": "definitely-not-a-kind"})
        tm.run_pending_once()
        job = store.list_jobs()[0][0]
        assert job.state == FAILED and "unknown request kind" in job.error

    def test_failed_run_write_fails_the_job_and_keeps_the_worker(self):
        class FlakyStore(Store):
            broken = True

            def append(self, *args, **kwargs):
                if self.broken:
                    self.broken = False
                    raise sqlite3.OperationalError("disk I/O error")
                return super().append(*args, **kwargs)

        store, runs = make_store(), FlakyStore()
        first = store.create("t", "scenario", REQUEST)
        second = store.create("t", "scenario", REQUEST)
        tm = TaskManager(store, runner=ok_runner, workers=1, runs=runs)
        tm.start()
        try:
            final = store.wait_terminal(second.id, timeout=5)
            assert tm.running  # the worker survived the first job
        finally:
            tm.stop()
        assert final.state == DONE and final.num_records == 1
        failed = store.get(first.id)
        assert failed.state == FAILED
        assert failed.error == "sqlite3.OperationalError: disk I/O error"
        assert runs.job_run(first.id) is None
        assert [run.job_id for run in runs.runs()[0]] == [second.id]

    def test_successful_job_files_its_run_then_completes(self):
        store = make_store()
        tm = TaskManager(store, runner=ok_runner)
        job = store.create("t", "scenario", REQUEST)
        assert tm.run_pending_once() == 1
        final = store.get(job.id)
        run = store.job_run(job.id)
        assert final.state == DONE and final.meta == run.meta
        assert final.meta["fake"] is True and run.scenario == "fake"
        records, total = store.get_records(run.run_id)
        assert total == 1 and records[0]["metrics"] == {"final_loss": 0.5}

    def test_failed_and_cancelled_jobs_file_no_run(self):
        def runner(request, cancel_check=None):
            if cancel_check():
                raise RunCancelled("cancelled")
            raise RuntimeError("boom")

        store = make_store()
        tm = TaskManager(store, runner=runner)
        failed = store.create("t", "scenario", REQUEST)
        tm.execute(store.claim_next())
        cancelled = store.create("t", "scenario", REQUEST)
        claimed = store.claim_next()
        store.request_cancel(cancelled.id)
        tm.execute(claimed)
        assert store.get(failed.id).state == FAILED
        assert store.get(cancelled.id).state == CANCELLED
        assert store.runs() == ([], None)


class TestRestartPersistence:
    def test_queue_survives_a_service_restart(self, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        store = make_store(db)
        tm = TaskManager(store, runner=ok_runner)
        done_job = store.create("t", "scenario", REQUEST)
        tm.run_pending_once()
        stranded_job = store.create("t", "scenario", REQUEST)
        waiting_job = store.create("t", "scenario", REQUEST)
        assert store.claim_next().id == stranded_job.id  # FIFO: oldest queued
        store.close()  # simulated crash: the RUNNING job is stranded

        reopened = make_store(db)
        assert reopened.get(done_job.id).state == DONE
        records, total = reopened.get_records(reopened.job_run(done_job.id).run_id)
        assert total == 1 and records[0]["label"] == "fake"
        assert reopened.get(stranded_job.id).state == RUNNING
        assert reopened.recover() == 1
        assert reopened.get(stranded_job.id).state == QUEUED
        assert reopened.get(waiting_job.id).state == QUEUED
        tm2 = TaskManager(reopened, runner=ok_runner)
        assert tm2.run_pending_once() == 2
        states = {job.id: job.state for job in reopened.list_jobs()[0]}
        assert set(states.values()) == {DONE}

    def test_taskmanager_start_recovers_stranded_jobs(self, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        store = make_store(db)
        job = store.create("t", "scenario", REQUEST)
        store.claim_next()
        store.close()
        reopened = make_store(db)
        tm = TaskManager(reopened, runner=ok_runner, workers=1)
        tm.start()
        try:
            client_view = None
            for _ in range(100):
                client_view = reopened.get(job.id)
                if client_view.state == DONE:
                    break
                threading.Event().wait(0.05)
            assert client_view.state == DONE
        finally:
            tm.stop()

    @pytest.mark.parametrize("split", [False, True], ids=["one-file", "two-files"])
    def test_recover_finishes_a_running_job_that_has_its_run(self, tmp_path, split):
        store = make_store(str(tmp_path / "jobs.sqlite3"))
        runs = make_store(str(tmp_path / "runs.sqlite3")) if split else store
        job = store.create("t", "scenario", REQUEST)
        stranded = store.create("t", "scenario", REQUEST)
        claimed = store.claim_next()
        store.claim_next()
        # The crash window: the run is filed, the DONE commit never happened.
        run = runs.append(
            "fake", "scenario", [{"label": "a"}, {"label": "b"}],
            meta={"fake": True}, job_id=claimed.id,
        )
        assert store.get(job.id).state == RUNNING
        assert store.recover(runs) == 1
        done = store.get(job.id)
        assert done.state == DONE and done.finished_at is not None
        assert done.meta == run.meta and done.meta["fake"] is True
        assert done.num_records == 2
        assert store.get(stranded.id).state == QUEUED
        assert [r.run_id for r in runs.runs()[0]] == [run.run_id]

    def test_schema_version_mismatch_fails_loudly(self, tmp_path):
        db = str(tmp_path / "jobs.sqlite3")
        store = make_store(db)
        store._conn.execute("UPDATE schema_version SET version = ?", (SCHEMA_VERSION + 1,))
        store._conn.commit()
        store.close()
        with pytest.raises(RuntimeError, match="schema version"):
            make_store(db)

"""The task-manager half of the controller/task-manager split.

The controller (:mod:`repro.service.controller`) only ever *writes intent*
to the store — new ``QUEUED`` jobs, ``cancel_requested`` flags.  The
:class:`TaskManager` owns all execution: a small pool of daemon worker
threads claim queued jobs atomically
(:meth:`~repro.service.store.Store.claim_next`), execute them through
the one façade (:func:`repro.api.run`) with a ``cancel_check`` bound to the
job's flag, and drive the remaining lifecycle transitions:

* normal completion → file the job's run (:func:`repro.api.record_result`,
  the job's records and summary), then ``RUNNING → DONE``;
* :class:`~repro.scenarios.runner.RunCancelled` → ``RUNNING → CANCELLED``;
* any other exception, from the run or from filing its run →
  ``RUNNING → FAILED`` with the traceback's final line stored as the job
  ``error``; the worker lives on to claim the next job.

``FAILED`` and ``CANCELLED`` jobs get no run.  A crash between filing the
run and the ``DONE`` commit leaves a ``RUNNING`` job with a run, which
:meth:`~repro.service.store.Store.recover` finishes at the next start, so
every job ends with exactly one run or none.

Workers park on a :class:`threading.Condition` when the queue is empty and
are woken by :meth:`notify` on each submission, so an idle service costs
nothing but one blocked thread per worker.

Tests inject a fake ``runner`` callable to script completions, failures and
cancellation races deterministically without training anything.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable, Optional

from repro import telemetry
from repro.api import RunRequest, RunResult, record_result
from repro.api import run as api_run
from repro.scenarios.runner import RunCancelled
from repro.service.exceptions import IllegalTransition
from repro.service.jobs import CANCELLED, DONE, FAILED, RUNNING, Job
from repro.service.store import Store

__all__ = ["TaskManager"]

Runner = Callable[..., RunResult]


class TaskManager:
    """Worker pool executing queued jobs from a :class:`Store`.

    Parameters
    ----------
    store:
        The shared job store (also used by the controller).
    workers:
        Number of concurrent worker threads.
    runner:
        The execution callable, ``runner(request, cancel_check=...) ->
        RunResult``.  Defaults to :func:`repro.api.run`; tests substitute a
        scripted fake.
    runs:
        The store every finished job's run is filed in (default: ``store``
        itself), the same history direct ``repro.api.run(record_to=...)``
        calls land in.
    """

    def __init__(
        self,
        store: Store,
        *,
        workers: int = 2,
        runner: Runner = api_run,
        runs: Optional[Store] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.runner = runner
        self.runs = store if runs is None else runs
        self.num_workers = workers
        self._threads: list[threading.Thread] = []
        self._wakeup = threading.Condition()
        self._stopping = False
        self._started = False

    # -- pool lifecycle ----------------------------------------------------- #
    def start(self) -> None:
        """Recover stranded jobs, then start the worker threads."""
        if self._started:
            return
        self.store.recover(self.runs)
        self._stopping = False
        self._started = True
        for i in range(self.num_workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, *, timeout: float = 10.0) -> None:
        """Ask workers to exit after their current job and join them."""
        with self._wakeup:
            self._stopping = True
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._started = False

    def notify(self) -> None:
        """Wake one parked worker (called by the controller on submit)."""
        with self._wakeup:
            self._wakeup.notify()

    # -- execution ---------------------------------------------------------- #
    def _worker_loop(self) -> None:
        while True:
            with self._wakeup:
                if self._stopping:
                    return
            job = self.store.claim_next()
            if job is None:
                with self._wakeup:
                    if self._stopping:
                        return
                    self._wakeup.wait(timeout=0.5)
                continue
            self.execute(job)

    def run_pending_once(self) -> int:
        """Synchronously drain the queue in the calling thread.

        Deterministic single-threaded execution for tests and for
        ``repro submit --local``-style flows; returns the number of jobs
        executed.
        """
        executed = 0
        while True:
            job = self.store.claim_next()
            if job is None:
                return executed
            self.execute(job)
            executed += 1

    def execute(self, job: Job) -> Job:
        """Execute one already-``RUNNING`` job to a terminal state."""
        if job.started_at is not None and job.created_at is not None:
            telemetry.observe(
                "repro_job_queue_wait_seconds",
                max(job.started_at - job.created_at, 0.0),
            )
        cancel_check = lambda: self.store.cancel_requested(job.id)  # noqa: E731
        run_t0 = time.perf_counter()
        try:
            request = RunRequest.from_dict(job.request)
            with telemetry.span("taskmanager.job") as job_span:
                job_span.set("action", job.action)
                result = self.runner(request, cancel_check=cancel_check)
            # Inside the try: a result that fails to serialize or persist
            # must fail the job, not kill the worker and strand it RUNNING.
            run = record_result(self.runs, request, result, job_id=job.id)
        except RunCancelled:
            return self._finish(job, CANCELLED, run_t0)
        except IllegalTransition:
            raise
        except Exception as exc:  # noqa: BLE001 — FAILED captures all worker errors
            error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            return self._finish(job, FAILED, run_t0, error=error)
        # DONE wins any cancel race: only this worker moves the job out of
        # RUNNING, so a cancel_requested flag set after the last poll is a
        # no-op on state.
        return self._finish(job, DONE, run_t0, run=run)

    def _finish(self, job: Job, state: str, run_t0: float, **outcome: Any) -> Job:
        """Transition ``job`` out of RUNNING and record its lifecycle metrics.

        ``outcome`` is the transition's ``error`` or ``run``.
        """
        finished = self.store.transition(job.id, RUNNING, state, **outcome)
        telemetry.count("repro_jobs_total", state=state)
        telemetry.observe("repro_job_run_seconds", time.perf_counter() - run_t0)
        cancel_time = self.store.pop_cancel_time(job.id)
        if cancel_time is not None and state == CANCELLED:
            telemetry.observe(
                "repro_job_cancel_latency_seconds",
                max(time.monotonic() - cancel_time, 0.0),
            )
        return finished

    # -- introspection ------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._started and any(t.is_alive() for t in self._threads)

    def describe(self) -> dict[str, Any]:
        return {
            "workers": self.num_workers,
            "running": self.running,
            "runner": getattr(self.runner, "__name__", repr(self.runner)),
        }

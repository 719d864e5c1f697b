"""Persistent, schema-versioned SQLite job queue.

One :class:`JobStore` owns a single SQLite database holding two tables:

``jobs``
    One row per submission.  ``seq`` (AUTOINCREMENT) is the stable global
    ordering used for marker pagination; ``state`` transitions are enforced
    *in SQL* with ``UPDATE ... WHERE state = ?`` so two threads can never
    both claim a job or double-finish it.

``job_records``
    The JSON-ready result records of finished jobs, one row per record in
    run order, paginated with ``LIMIT``/``OFFSET``.

The schema is versioned in ``schema_version``; opening a store with an
unknown (newer) version fails loudly rather than corrupting data, and the
version row is how future PRs add migrations.

Crash/restart recovery: :meth:`JobStore.recover` re-queues any job left
``RUNNING`` by a dead service process, so restarting the service resumes
work instead of stranding jobs (exercised by the restart-persistence tests).

Thread-safety: one shared connection guarded by an :class:`threading.RLock`
(`check_same_thread=False`), with ``BEGIN IMMEDIATE`` around the
claim-next-job read-modify-write.  A :class:`threading.Condition` over the
same lock is notified on every successful transition and on ``close``, so
:meth:`JobStore.wait_terminal` (the long-poll status read) wakes the moment
a job ends.  Only transitions made through this store object notify: a job
finished by another process is seen when the waiter's timeout expires.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.service.exceptions import Conflict, IllegalTransition, NotFound
from repro.service.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    validate_transition,
)

__all__ = ["JobStore", "SCHEMA_VERSION"]

#: Bump when the table layout changes; add a migration in ``_ensure_schema``.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_version (
    version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    id TEXT NOT NULL UNIQUE,
    tenant TEXT NOT NULL,
    action TEXT NOT NULL,
    request TEXT NOT NULL,
    state TEXT NOT NULL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    error TEXT,
    meta TEXT,
    endpoints TEXT,
    num_records INTEGER NOT NULL DEFAULT 0,
    created_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state, seq);
CREATE INDEX IF NOT EXISTS idx_jobs_tenant ON jobs (tenant, seq);
CREATE TABLE IF NOT EXISTS job_records (
    job_id TEXT NOT NULL,
    idx INTEGER NOT NULL,
    record TEXT NOT NULL,
    PRIMARY KEY (job_id, idx)
);
"""

_JOB_COLUMNS = (
    "seq, id, tenant, action, request, state, cancel_requested, "
    "error, meta, endpoints, num_records, created_at, started_at, finished_at"
)


class JobStore:
    """SQLite-backed persistent job queue (see module docstring).

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store (used
        by tests that don't exercise restart persistence).
    clock:
        Injectable time source for ``created_at``/``started_at``/
        ``finished_at`` stamps (default :func:`time.time`).
    """

    def __init__(self, path: str = ":memory:", *, clock=time.time):
        self.path = path
        self._clock = clock
        self._lock = threading.RLock()
        self._changed = threading.Condition(self._lock)
        self._closed = False
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        # In-memory cancel-request stamps (job_id -> monotonic seconds) so
        # the TaskManager can report observed cancel latency; advisory only,
        # never persisted.
        self._cancel_times: Dict[str, float] = {}
        self._ensure_schema()

    # -- lifecycle of the store itself ------------------------------------- #
    def _ensure_schema(self) -> None:
        with self._lock, self._conn:
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute("SELECT version FROM schema_version").fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO schema_version (version) VALUES (?)", (SCHEMA_VERSION,)
                )
            elif row["version"] != SCHEMA_VERSION:
                raise RuntimeError(
                    f"job store {self.path!r} has schema version {row['version']}, "
                    f"this build supports {SCHEMA_VERSION}"
                )

    def close(self) -> None:
        """Close the connection and release every :meth:`wait_terminal` caller."""
        with self._lock:
            self._closed = True
            self._changed.notify_all()
            self._conn.close()

    def recover(self) -> int:
        """Re-queue jobs stranded ``RUNNING`` by a crashed service process.

        Returns the number of jobs re-queued.  Call once at service startup,
        before workers start claiming.
        """
        with self._lock, self._conn:
            cur = self._conn.execute(
                "UPDATE jobs SET state = ?, started_at = NULL WHERE state = ?",
                (QUEUED, RUNNING),
            )
            return cur.rowcount

    # -- creation / lookup -------------------------------------------------- #
    def create(self, tenant: str, action: str, request: Dict[str, Any]) -> Job:
        """Persist a new ``QUEUED`` job and return it (with id and seq)."""
        job_id = uuid.uuid4().hex
        now = float(self._clock())
        with self._lock, self._conn:
            cur = self._conn.execute(
                "INSERT INTO jobs (id, tenant, action, request, state, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (job_id, tenant, action, json.dumps(request), QUEUED, now),
            )
            seq = cur.lastrowid
        return Job(
            id=job_id,
            tenant=tenant,
            action=action,
            request=dict(request),
            state=QUEUED,
            seq=seq,
            created_at=now,
        )

    def get(self, job_id: str, *, tenant: Optional[str] = None) -> Job:
        """Fetch one job; tenant-scoped lookups 404 on other tenants' jobs."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None or (tenant is not None and row["tenant"] != tenant):
            raise NotFound(f"no such job {job_id!r}")
        return Job.from_row(row)

    def wait_terminal(
        self, job_id: str, *, tenant: Optional[str] = None, timeout: float
    ) -> Job:
        """Fetch one job once it is terminal, or as it is after ``timeout`` s.

        The first read runs before any wait, so an unknown id or another
        tenant's job raises :class:`NotFound` at once.  The row is re-read
        after every transition this store makes; :meth:`close` returns the
        last read at once.
        """
        deadline = time.monotonic() + timeout
        with self._changed:
            job = self.get(job_id, tenant=tenant)
            while job.state not in TERMINAL_STATES and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._changed.wait(remaining)
                if not self._closed:
                    job = self.get(job_id, tenant=tenant)
        return job

    def list_jobs(
        self,
        *,
        tenant: Optional[str] = None,
        marker: Optional[str] = None,
        limit: int = 20,
        state: Optional[str] = None,
    ) -> Tuple[List[Job], Optional[str]]:
        """Marker-paginated listing, oldest first.

        ``marker`` is the id of the last job of the previous page (Trove
        style); returns ``(jobs, next_marker)`` where ``next_marker`` is
        ``None`` on the final page.
        """
        clauses, params = ["1=1"], []
        if tenant is not None:
            clauses.append("tenant = ?")
            params.append(tenant)
        if state is not None:
            clauses.append("state = ?")
            params.append(state)
        if marker is not None:
            marker_job = self.get(marker, tenant=tenant)
            clauses.append("seq > ?")
            params.append(marker_job.seq)
        limit = max(1, int(limit))
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE {' AND '.join(clauses)} "
                f"ORDER BY seq LIMIT ?",
                (*params, limit + 1),
            ).fetchall()
        jobs = [Job.from_row(row) for row in rows[:limit]]
        next_marker = jobs[-1].id if len(rows) > limit else None
        return jobs, next_marker

    def count_active(self, tenant: str) -> int:
        """Jobs currently counting against ``tenant``'s quota."""
        placeholders = ", ".join("?" for _ in ACTIVE_STATES)
        with self._lock:
            row = self._conn.execute(
                f"SELECT COUNT(*) AS n FROM jobs WHERE tenant = ? "
                f"AND state IN ({placeholders})",
                (tenant, *sorted(ACTIVE_STATES)),
            ).fetchone()
        return int(row["n"])

    def counts(self) -> Dict[str, int]:
        """Job counts per state across all tenants (health/metrics gauges)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        return {row["state"]: int(row["n"]) for row in rows}

    # -- the state machine --------------------------------------------------- #
    def transition(self, job_id: str, old: str, new: str, *, error: Optional[str] = None) -> Job:
        """Atomically move ``job_id`` from ``old`` to ``new``.

        Validates against :data:`~repro.service.jobs.TRANSITIONS` first, then
        performs ``UPDATE ... WHERE state = old`` so a concurrent transition
        loses cleanly (raises :class:`Conflict`) instead of clobbering.
        """
        validate_transition(old, new)
        now = float(self._clock())
        sets = ["state = ?"]
        params: List[Any] = [new]
        if new == RUNNING:
            sets.append("started_at = ?")
            params.append(now)
        elif old == RUNNING or new == CANCELLED:
            sets.append("finished_at = ?")
            params.append(now)
        if error is not None:
            sets.append("error = ?")
            params.append(error)
        with self._lock, self._conn:
            cur = self._conn.execute(
                f"UPDATE jobs SET {', '.join(sets)} WHERE id = ? AND state = ?",
                (*params, job_id, old),
            )
            if cur.rowcount == 0:
                current = self.get(job_id)  # raises NotFound if truly absent
                raise IllegalTransition(
                    f"job {job_id} is {current.state}, not {old}; "
                    f"cannot transition to {new}"
                )
            # Waiters re-read only after this block commits and releases the lock.
            self._changed.notify_all()
        return self.get(job_id)

    def claim_next(self) -> Optional[Job]:
        """Atomically claim the oldest ``QUEUED`` job, moving it ``RUNNING``.

        Returns ``None`` when the queue is empty.  ``BEGIN IMMEDIATE`` takes
        the write lock up front so concurrent workers serialize here and can
        never claim the same job.
        """
        claim_t0 = time.perf_counter()
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    f"SELECT {_JOB_COLUMNS} FROM jobs WHERE state = ? "
                    "ORDER BY seq LIMIT 1",
                    (QUEUED,),
                ).fetchone()
                if row is None:
                    self._conn.execute("COMMIT")
                    return None
                self._conn.execute(
                    "UPDATE jobs SET state = ?, started_at = ? WHERE seq = ?",
                    (RUNNING, float(self._clock()), row["seq"]),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        # Claim contention: time to win the write lock and commit the claim.
        telemetry.observe("repro_store_claim_seconds", time.perf_counter() - claim_t0)
        return self.get(row["id"])

    def request_cancel(self, job_id: str, *, tenant: Optional[str] = None) -> Job:
        """Cooperatively cancel a job (see :mod:`repro.service.jobs`).

        ``QUEUED`` jobs are cancelled immediately; ``RUNNING`` jobs get the
        ``cancel_requested`` flag and the worker finishes the transition.
        Cancelling a terminal job raises :class:`Conflict`.
        """
        job = self.get(job_id, tenant=tenant)
        if job.state == QUEUED:
            try:
                return self.transition(job_id, QUEUED, CANCELLED)
            except IllegalTransition:
                job = self.get(job_id, tenant=tenant)  # raced with a worker claim
        if job.state == RUNNING:
            with self._lock, self._conn:
                self._conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
                )
                self._cancel_times.setdefault(job_id, time.monotonic())
            return self.get(job_id)
        raise Conflict(f"job {job_id} is {job.state}; cannot cancel a terminal job")

    def pop_cancel_time(self, job_id: str) -> Optional[float]:
        """Consume the monotonic stamp of ``job_id``'s first cancel request."""
        with self._lock:
            return self._cancel_times.pop(job_id, None)

    def cancel_requested(self, job_id: str) -> bool:
        """The worker-side ``cancel_check`` poll."""
        with self._lock:
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return bool(row and row["cancel_requested"])

    # -- results -------------------------------------------------------------- #
    def save_result(
        self,
        job_id: str,
        *,
        records: Sequence[Dict[str, Any]],
        meta: Dict[str, Any],
        endpoints: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Persist a finished job's records and meta (before DONE transition)."""
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM job_records WHERE job_id = ?", (job_id,))
            self._conn.executemany(
                "INSERT INTO job_records (job_id, idx, record) VALUES (?, ?, ?)",
                [(job_id, i, json.dumps(record)) for i, record in enumerate(records)],
            )
            self._conn.execute(
                "UPDATE jobs SET meta = ?, endpoints = ?, num_records = ? WHERE id = ?",
                (
                    json.dumps(meta),
                    json.dumps(endpoints) if endpoints else None,
                    len(records),
                    job_id,
                ),
            )

    def get_records(
        self,
        job_id: str,
        *,
        tenant: Optional[str] = None,
        offset: int = 0,
        limit: int = 50,
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Page through a job's result records; returns ``(records, total)``."""
        job = self.get(job_id, tenant=tenant)
        offset = max(0, int(offset))
        limit = max(1, int(limit))
        with self._lock:
            rows = self._conn.execute(
                "SELECT record FROM job_records WHERE job_id = ? "
                "ORDER BY idx LIMIT ? OFFSET ?",
                (job_id, limit, offset),
            ).fetchall()
        return [json.loads(row["record"]) for row in rows], job.num_records

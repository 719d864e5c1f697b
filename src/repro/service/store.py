"""Persistent, schema-versioned SQLite store of jobs and runs.

One :class:`Store` owns one SQLite file with one schema:

``jobs``
    One row per service submission.  ``seq`` (AUTOINCREMENT) orders marker
    pagination; ``state`` transitions are enforced *in SQL* with
    ``UPDATE ... WHERE state = ?`` so two threads can never both claim a job
    or double-finish it.  The UPDATE to ``DONE`` also copies the run's
    ``meta``, ``endpoints`` and record count, so a status read is one row.
``runs``
    One row per recorded execution, keyed by its provenance.  A run a
    service job produced carries that job's id (``job_id``, unique).
``records``
    Each run's records, one whole JSON document per row in run order.

A job's records live only in its run, filed before ``RUNNING → DONE``;
:meth:`Store.recover` finishes a ``RUNNING`` job that already has its run,
so after a crash every job has exactly one run or none.  Runs may sit in
the jobs' file or in a second one of the same schema.  A file of another
schema version is refused at open: there is no migration.

Thread-safety: one shared connection behind an :class:`threading.RLock`,
``BEGIN IMMEDIATE`` around claims and appends, and a ``busy_timeout`` so
processes sharing a file serialize.  A :class:`threading.Condition` over
the lock is notified on every transition and on ``close``, so
:meth:`Store.wait_terminal` (the long-poll read) wakes the moment a job
ends; a job finished by another process is seen when the wait expires.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import telemetry
from repro.results.provenance import Provenance, build_provenance
from repro.service.exceptions import Conflict, IllegalTransition, NotFound
from repro.service.jobs import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    validate_transition,
)

__all__ = ["SCHEMA_VERSION", "Store", "StoredRun", "open_store"]

#: Bump when the table layout changes.  Files of another version are refused.
SCHEMA_VERSION = 2

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
CREATE TABLE IF NOT EXISTS runs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT NOT NULL UNIQUE,
    job_id TEXT UNIQUE,
    scenario TEXT NOT NULL,
    kind TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    git_sha TEXT NOT NULL,
    started_at REAL NOT NULL,
    tags TEXT NOT NULL DEFAULT '[]',
    meta TEXT NOT NULL DEFAULT '{}',
    endpoints TEXT,
    num_records INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_runs_scenario ON runs (scenario, seq);
CREATE TABLE IF NOT EXISTS records (
    run_id TEXT NOT NULL,
    idx INTEGER NOT NULL,
    record TEXT NOT NULL,
    PRIMARY KEY (run_id, idx)
);
"""


_RUN_VIEW = (
    "run_id", "scenario", "kind", "config_hash", "git_sha", "started_at", "tags", "num_records"
)
_IDENTITY = ("run_id", "git_sha", "config_hash", "started_at")


@dataclass
class StoredRun:
    """One recorded execution (the ``runs`` row, records fetched separately)."""

    run_id: str
    scenario: str
    kind: str
    config_hash: str
    git_sha: str
    started_at: float
    seq: int = 0
    job_id: Optional[str] = None
    tags: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    endpoints: Dict[str, Any] = field(default_factory=dict)
    num_records: int = 0

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "StoredRun":
        columns = dict(row)  # one column per field; the JSON ones decoded
        for name in ("tags", "meta", "endpoints"):
            columns[name] = json.loads(columns[name]) if columns[name] else {}
        return cls(**columns)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the history endpoints' run view)."""
        return {name: getattr(self, name) for name in _RUN_VIEW}


class Store:
    """SQLite-backed jobs and runs (see module docstring).

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store.
    clock:
        Injectable time source for job timestamps and for the provenance of
        an append that brings none (default :func:`time.time`).
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
        self._conn.execute("PRAGMA busy_timeout=10000")
        # In-memory cancel-request stamps (job_id -> monotonic seconds) so
        # the TaskManager can report observed cancel latency; advisory only,
        # never persisted.
        self._cancel_times: Dict[str, float] = {}
        self._ensure_schema()

    # -- lifecycle of the store itself ------------------------------------- #
    def _ensure_schema(self) -> None:
        with self._lock, self._conn:
            try:
                row = self._conn.execute("SELECT version FROM schema_version").fetchone()
            except sqlite3.OperationalError:  # a new file: no tables yet
                row = None
            # Checked before any CREATE, so a refused file is left untouched.
            if row is not None and row["version"] != SCHEMA_VERSION:
                raise RuntimeError(
                    f"store {self.path!r} has schema version {row['version']}, "
                    f"this build supports {SCHEMA_VERSION}"
                )
            self._conn.executescript(_SCHEMA)
            if row is None:
                self._conn.execute(
                    "INSERT INTO schema_version (version) VALUES (?)", (SCHEMA_VERSION,)
                )

    def close(self) -> None:
        """Close the connection and release every :meth:`wait_terminal` caller."""
        with self._lock:
            self._closed = True
            self._changed.notify_all()
            self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def recover(self, runs: Optional["Store"] = None) -> int:
        """Settle jobs stranded ``RUNNING`` by a crashed service process.

        A stranded job whose run is already filed in ``runs`` (default:
        this store) moves to ``DONE`` with that run's summary; every other
        one is re-queued.  Returns the number re-queued.  Call once at
        service startup, before workers start claiming.
        """
        runs = self if runs is None else runs
        with self._lock:
            stranded = [
                row["id"]
                for row in self._conn.execute("SELECT id FROM jobs WHERE state = ?", (RUNNING,))
            ]
        requeued = 0
        for job_id in stranded:
            run = runs.job_run(job_id)
            if run is not None:
                self.transition(job_id, RUNNING, DONE, run=run)
                continue
            with self._lock, self._conn:
                self._conn.execute(
                    "UPDATE jobs SET state = ?, started_at = NULL WHERE id = ? AND state = ?",
                    (QUEUED, job_id, RUNNING),
                )
            requeued += 1
        return requeued

    def _page(
        self,
        table: str,
        key: str,
        *,
        scope: Mapping[str, Any],
        where: Mapping[str, Any],
        marker: Optional[str],
        limit: int,
    ) -> Tuple[List[sqlite3.Row], Optional[str]]:
        """One marker page of ``table``, oldest first (Trove style).

        ``scope`` and ``where`` are equality filters (``None`` values are
        skipped); ``marker`` is the ``key`` of the previous page's last row
        and must lie in ``scope``, else :class:`NotFound`.  Returns
        ``(rows, next_marker)``, ``next_marker`` ``None`` on the final page.
        """
        scoped = {name: value for name, value in scope.items() if value is not None}
        filters = {**scoped, **{k: v for k, v in where.items() if v is not None}}
        clauses = [f"{name} = ?" for name in filters] or ["1=1"]
        params: List[Any] = list(filters.values())
        limit = max(1, int(limit))
        with self._lock:
            if marker is not None:
                row = self._conn.execute(
                    f"SELECT seq FROM {table} WHERE "
                    + " AND ".join(f"{name} = ?" for name in (key, *scoped)),
                    (marker, *scoped.values()),
                ).fetchone()
                if row is None:
                    raise NotFound(f"unknown marker {marker!r}")
                clauses.append("seq > ?")
                params.append(row["seq"])
            rows = self._conn.execute(
                f"SELECT * FROM {table} WHERE {' AND '.join(clauses)} ORDER BY seq LIMIT ?",
                (*params, limit + 1),
            ).fetchall()
        next_marker = rows[limit - 1][key] if len(rows) > limit else None
        return rows[:limit], next_marker

    # -- jobs: creation / lookup --------------------------------------------- #
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
            row = self._conn.execute("SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
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
        """Marker-paginated listing, oldest first; ``marker`` is a job id."""
        rows, next_marker = self._page(
            "jobs", "id", scope={"tenant": tenant}, where={"state": state},
            marker=marker, limit=limit,
        )
        return [Job.from_row(row) for row in rows], next_marker

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

    # -- jobs: the state machine ---------------------------------------------- #
    def transition(
        self,
        job_id: str,
        old: str,
        new: str,
        *,
        error: Optional[str] = None,
        run: Optional[StoredRun] = None,
    ) -> Job:
        """Atomically move ``job_id`` from ``old`` to ``new``.

        Validates against :data:`~repro.service.jobs.TRANSITIONS` first, then
        performs ``UPDATE ... WHERE state = old`` so a concurrent transition
        loses cleanly (raises :class:`Conflict`) instead of clobbering.
        ``run`` (the job's filed run) sets the job's ``meta``, ``endpoints``
        and ``num_records`` in the same UPDATE.
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
        if run is not None:
            sets += ["meta = ?", "endpoints = ?", "num_records = ?"]
            params += [
                json.dumps(run.meta),
                json.dumps(run.endpoints) if run.endpoints else None,
                run.num_records,
            ]
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
                    "SELECT seq, id FROM jobs WHERE state = ? ORDER BY seq LIMIT 1",
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

    # -- runs ------------------------------------------------------------------ #
    def append(
        self,
        scenario: str,
        kind: str,
        records: Sequence[Mapping[str, Any]],
        *,
        meta: Optional[Mapping[str, Any]] = None,
        endpoints: Optional[Mapping[str, Any]] = None,
        tags: Sequence[str] = (),
        provenance: Optional[Provenance] = None,
        job_id: Optional[str] = None,
    ) -> StoredRun:
        """Persist one run and its records in one transaction; returns the row.

        ``records`` are JSON-ready dicts, stored whole.  When ``provenance``
        is omitted it is read from ``meta["provenance"]`` (stamped by
        :func:`repro.api.run`) or built from ``meta``.  ``job_id`` files the
        run as that service job's result; a job has at most one run.
        """
        meta = dict(meta or {})
        if provenance is None:
            stored = meta.get("provenance")
            provenance = (
                Provenance.from_dict(stored)
                if stored
                else build_provenance(
                    {k: v for k, v in meta.items() if k != "provenance"},
                    clock=self._clock,
                )
            )
        meta.setdefault("provenance", provenance.to_dict())
        run_row = (
            provenance.run_id,
            job_id,
            scenario,
            kind,
            provenance.config_hash,
            provenance.git_sha,
            provenance.started_at,
            json.dumps(list(tags)),
            json.dumps(meta),
            json.dumps(dict(endpoints)) if endpoints else None,
            len(records),
        )
        record_rows = [
            (provenance.run_id, i, json.dumps(record)) for i, record in enumerate(records)
        ]
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO runs (run_id, job_id, scenario, kind, config_hash, "
                    "git_sha, started_at, tags, meta, endpoints, num_records) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    run_row,
                )
                self._conn.executemany(
                    "INSERT INTO records (run_id, idx, record) VALUES (?, ?, ?)",
                    record_rows,
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return self.get_run(provenance.run_id)

    def get_run(self, run_id: str) -> StoredRun:
        with self._lock:
            row = self._conn.execute("SELECT * FROM runs WHERE run_id = ?", (run_id,)).fetchone()
        if row is None:
            raise NotFound(f"no such run {run_id!r}")
        return StoredRun.from_row(row)

    def job_run(self, job_id: str) -> Optional[StoredRun]:
        """The run service job ``job_id`` produced, or ``None``."""
        with self._lock:
            row = self._conn.execute("SELECT * FROM runs WHERE job_id = ?", (job_id,)).fetchone()
        return StoredRun.from_row(row) if row is not None else None

    def runs(
        self,
        *,
        scenario: Optional[str] = None,
        marker: Optional[str] = None,
        limit: int = 50,
    ) -> Tuple[List[StoredRun], Optional[str]]:
        """Marker-paginated run listing, oldest first; ``marker`` is a run id."""
        rows, next_marker = self._page(
            "runs", "run_id", scope={"scenario": scenario}, where={},
            marker=marker, limit=limit,
        )
        return [StoredRun.from_row(row) for row in rows], next_marker

    def scenarios(self) -> List[str]:
        """Distinct scenario names with at least one recorded run."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT DISTINCT scenario FROM runs ORDER BY scenario"
            ).fetchall()
        return [row["scenario"] for row in rows]

    def get_records(
        self, run_id: str, *, offset: int = 0, limit: int = 200
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Offset/limit page through one run's records; ``(records, total)``."""
        run = self.get_run(run_id)
        offset = max(0, int(offset))
        limit = max(1, int(limit))
        with self._lock:
            rows = self._conn.execute(
                "SELECT record FROM records WHERE run_id = ? ORDER BY idx LIMIT ? OFFSET ?",
                (run_id, limit, offset),
            ).fetchall()
        return [json.loads(row["record"]) for row in rows], run.num_records

    def scenario_records(self, scenario: str) -> List[Tuple[Dict[str, Any], Dict[str, Any]]]:
        """``(run identity, record)`` for every record of ``scenario``, in order.

        One statement; the identity is the run's ``run_id``, ``git_sha``,
        ``config_hash`` and ``started_at``.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT runs.run_id, git_sha, config_hash, started_at, record "
                "FROM runs JOIN records ON records.run_id = runs.run_id "
                "WHERE scenario = ? ORDER BY runs.seq, records.idx",
                (scenario,),
            ).fetchall()
        return [
            ({name: row[name] for name in _IDENTITY}, json.loads(row["record"]))
            for row in rows
        ]


def open_store(store: Union[str, Store]) -> Tuple[Store, bool]:
    """Normalize a path-or-store argument; returns ``(store, owns_it)``.

    ``owns_it`` tells the caller whether it opened (and should close) the
    connection — ``repro.api.run(record_to=...)`` accepts either form.
    """
    if isinstance(store, Store):
        return store, False
    return Store(str(store)), True

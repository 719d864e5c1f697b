"""Persistent, schema-versioned SQLite store of run results.

Where :class:`repro.service.store.JobStore` is a *queue* (it pages a job's
records out and forgets the history), this store is the repo's perf
*memory*: every :class:`~repro.scenarios.runner.ScenarioRecord` ever
appended, keyed by ``(scenario, config_hash, git_sha, started_at)``,
queryable as per-metric trend series (``repro scenario history``,
``GET /v1/history``).

Two tables:

``runs``
    One row per recorded execution.  ``seq`` (AUTOINCREMENT) gives the
    stable global ordering used for marker pagination — the same Trove-style
    convention as the job store.
``records``
    The JSON-ready result records of each run, one row per record in run
    order, offset/limit paginated.

The schema is versioned in ``schema_version``; opening a store with any
other version fails loudly rather than corrupting data — the same
discipline as the service's job store.

Thread-safety: one shared connection guarded by an :class:`threading.RLock`
(``check_same_thread=False``) with ``BEGIN IMMEDIATE`` around appends, plus
a generous ``busy_timeout`` so separate processes appending to the same
file (a service and a CLI run) serialize instead of erroring.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.results.provenance import Provenance, build_provenance

__all__ = ["ResultsStore", "SCHEMA_VERSION", "StoredRun", "open_store"]

#: Bump when the table layout changes; add a migration in ``_ensure_schema``.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS schema_version (
    version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT NOT NULL UNIQUE,
    scenario TEXT NOT NULL,
    kind TEXT NOT NULL,
    config_hash TEXT NOT NULL,
    git_sha TEXT NOT NULL,
    started_at REAL NOT NULL,
    tags TEXT NOT NULL DEFAULT '[]',
    meta TEXT NOT NULL DEFAULT '{}',
    num_records INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_runs_scenario ON runs (scenario, seq);
CREATE INDEX IF NOT EXISTS idx_runs_sha ON runs (git_sha, seq);
CREATE TABLE IF NOT EXISTS records (
    run_id TEXT NOT NULL,
    idx INTEGER NOT NULL,
    label TEXT NOT NULL,
    params TEXT NOT NULL,
    metrics TEXT NOT NULL,
    PRIMARY KEY (run_id, idx)
);
"""

_RUN_COLUMNS = (
    "seq, run_id, scenario, kind, config_hash, git_sha, started_at, "
    "tags, meta, num_records"
)


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
    tags: List[str] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    num_records: int = 0

    @classmethod
    def from_row(cls, row: sqlite3.Row) -> "StoredRun":
        return cls(
            run_id=row["run_id"],
            scenario=row["scenario"],
            kind=row["kind"],
            config_hash=row["config_hash"],
            git_sha=row["git_sha"],
            started_at=row["started_at"],
            seq=row["seq"],
            tags=json.loads(row["tags"]),
            meta=json.loads(row["meta"]),
            num_records=row["num_records"],
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (the history endpoints' run view)."""
        return {
            "run_id": self.run_id,
            "scenario": self.scenario,
            "kind": self.kind,
            "config_hash": self.config_hash,
            "git_sha": self.git_sha,
            "started_at": self.started_at,
            "tags": list(self.tags),
            "num_records": self.num_records,
        }


class ResultsStore:
    """SQLite-backed persistent run store (see module docstring).

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store.
    clock:
        Injectable time source used when an append has no explicit
        provenance (default :func:`time.time`).
    """

    def __init__(self, path: str = ":memory:", *, clock=time.time):
        self.path = path
        self._clock = clock
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=10000")
        self._ensure_schema()

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
                    f"results store {self.path!r} has schema version "
                    f"{row['version']}, this build supports {SCHEMA_VERSION}"
                )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- appends ------------------------------------------------------------- #
    def append(
        self,
        scenario: str,
        kind: str,
        records: Sequence[Mapping[str, Any]],
        *,
        meta: Optional[Mapping[str, Any]] = None,
        tags: Sequence[str] = (),
        provenance: Optional[Provenance] = None,
    ) -> StoredRun:
        """Persist one run and its records; returns the stored row.

        ``records`` are JSON-ready dicts in the
        :class:`~repro.scenarios.runner.ScenarioRecord` shape
        (``{"params", "label", "metrics"}``).  When ``provenance`` is
        omitted, one is built from ``meta`` — callers that already computed
        identity (:func:`repro.api.run`) pass theirs through so the store
        key matches the JSON artifact and the service job record.
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
        rows = [
            (
                provenance.run_id,
                i,
                str(record.get("label", "")),
                json.dumps(dict(record.get("params", {}))),
                json.dumps(dict(record.get("metrics", {}))),
            )
            for i, record in enumerate(records)
        ]
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                self._conn.execute(
                    "INSERT INTO runs (run_id, scenario, kind, config_hash, "
                    "git_sha, started_at, tags, meta, num_records) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        provenance.run_id,
                        scenario,
                        kind,
                        provenance.config_hash,
                        provenance.git_sha,
                        provenance.started_at,
                        json.dumps(list(tags)),
                        json.dumps(meta),
                        len(rows),
                    ),
                )
                self._conn.executemany(
                    "INSERT INTO records (run_id, idx, label, params, metrics) "
                    "VALUES (?, ?, ?, ?, ?)",
                    rows,
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return self.get_run(provenance.run_id)

    # -- lookups -------------------------------------------------------------- #
    def get_run(self, run_id: str) -> StoredRun:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE run_id = ?", (run_id,)
            ).fetchone()
        if row is None:
            raise KeyError(f"no such run {run_id!r}")
        return StoredRun.from_row(row)

    def runs(
        self,
        *,
        scenario: Optional[str] = None,
        kind: Optional[str] = None,
        tag: Optional[str] = None,
        git_sha: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        marker: Optional[str] = None,
        limit: int = 50,
    ) -> Tuple[List[StoredRun], Optional[str]]:
        """Marker-paginated run listing, oldest first.

        ``marker`` is the ``run_id`` of the previous page's last run (the
        job store's Trove convention); returns ``(runs, next_marker)`` with
        ``next_marker`` ``None`` on the final page.  ``since`` / ``until``
        bound ``started_at`` (POSIX timestamps, inclusive).
        """
        clauses, params = ["1=1"], []  # type: ignore[var-annotated]
        if scenario is not None:
            clauses.append("scenario = ?")
            params.append(scenario)
        if kind is not None:
            clauses.append("kind = ?")
            params.append(kind)
        if tag is not None:
            # tags is a JSON array of strings; the quoted-substring match is
            # exact because json.dumps always quotes array elements.
            clauses.append("tags LIKE ?")
            params.append(f'%{json.dumps(str(tag))}%')
        if git_sha is not None:
            clauses.append("git_sha = ?")
            params.append(git_sha)
        if since is not None:
            clauses.append("started_at >= ?")
            params.append(float(since))
        if until is not None:
            clauses.append("started_at <= ?")
            params.append(float(until))
        if marker is not None:
            clauses.append("seq > ?")
            params.append(self.get_run(marker).seq)
        limit = max(1, int(limit))
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE {' AND '.join(clauses)} "
                f"ORDER BY seq LIMIT ?",
                (*params, limit + 1),
            ).fetchall()
        runs = [StoredRun.from_row(row) for row in rows[:limit]]
        next_marker = runs[-1].run_id if len(rows) > limit else None
        return runs, next_marker

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
                "SELECT label, params, metrics FROM records WHERE run_id = ? "
                "ORDER BY idx LIMIT ? OFFSET ?",
                (run_id, limit, offset),
            ).fetchall()
        records = [
            {
                "label": row["label"],
                "params": json.loads(row["params"]),
                "metrics": json.loads(row["metrics"]),
            }
            for row in rows
        ]
        return records, run.num_records

    # -- trend queries --------------------------------------------------------- #
    def metric_names(self, scenario: str) -> List[str]:
        """Metric names observed across ``scenario``'s recorded runs."""
        names = set()
        for run, records in self._iter_runs_with_records(scenario, last=None):
            for record in records:
                names.update(record["metrics"])
        return sorted(names)

    def trend(
        self,
        scenario: str,
        metric: str,
        *,
        where: Optional[Mapping[str, Any]] = None,
        last: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """One metric's trend series across a scenario's runs, oldest first.

        Each point is ``{"run_id", "git_sha", "config_hash", "started_at",
        "value"}``.  ``where`` restricts to records whose params contain the
        given subset (e.g. ``{"delta": 0.3}`` picks one grid point of a
        sweep); when several records of a run match, their mean is the
        point.  ``last`` keeps only the most recent K points.
        """
        points: List[Dict[str, Any]] = []
        for run, records in self._iter_runs_with_records(scenario, last=None):
            values = [
                float(record["metrics"][metric])
                for record in records
                if metric in record["metrics"]
                and (
                    where is None
                    or all(record["params"].get(k) == v for k, v in where.items())
                )
            ]
            if not values:
                continue
            points.append(
                {
                    "run_id": run.run_id,
                    "git_sha": run.git_sha,
                    "config_hash": run.config_hash,
                    "started_at": run.started_at,
                    "value": sum(values) / len(values),
                }
            )
        if last is not None:
            points = points[-max(1, int(last)):]
        return points

    def _iter_runs_with_records(
        self, scenario: str, *, last: Optional[int]
    ) -> List[Tuple[StoredRun, List[Dict[str, Any]]]]:
        out: List[Tuple[StoredRun, List[Dict[str, Any]]]] = []
        marker: Optional[str] = None
        while True:
            runs, marker = self.runs(scenario=scenario, marker=marker, limit=200)
            for run in runs:
                records, _ = self.get_records(run.run_id, limit=max(run.num_records, 1))
                out.append((run, records))
            if marker is None:
                break
        if last is not None:
            out = out[-max(1, int(last)):]
        return out


def open_store(store: Union[str, ResultsStore]) -> Tuple[ResultsStore, bool]:
    """Normalize a path-or-store argument; returns ``(store, owns_it)``.

    ``owns_it`` tells the caller whether it opened (and should close) the
    connection — the ``record_to=`` sinks accept either form.
    """
    if isinstance(store, ResultsStore):
        return store, False
    return ResultsStore(str(store)), True

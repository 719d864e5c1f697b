"""`repro.results`: recording runs and querying their history.

This subsystem turns finished runs into a queryable history:

* :class:`~repro.service.store.Store` — the one schema-versioned SQLite
  store, holding every recorded run and its records, keyed by
  ``(scenario, config_hash, git_sha, started_at)`` (it also holds the
  service's jobs; a job's records live only in the run it produced);
* :mod:`~repro.results.provenance` — run identity (``run_id``,
  ``config_hash``, ``git_sha``, ``started_at``) computed once and stamped
  by :func:`repro.api.run` onto every result.

Append paths: ``record_to=`` on :func:`repro.api.run` (the CLI's
``--record``) and the service task manager, which files every finished
job's run.  Both go through :func:`repro.api.record_result` to
:func:`record_run_payload`, under the provenance ``api.run`` stamped.
Query surfaces: ``repro scenario history``, ``GET /v1/history`` on the
experiment service, and this module's :func:`history_payload` — the one
builder both of those render, which is what makes their trend series
identical by construction.

:mod:`repro.api` imports this package when it loads and
:mod:`repro.service` imports :mod:`repro.api`, so the functions here import
the store when they are called, never at load.

Performance claims are not measured here: the perf ledger under
``benchmarks/ledger/`` is the repo's one benchmark.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.results.provenance import (
    Provenance,
    build_provenance,
    config_hash,
    current_git_sha,
    new_run_id,
)

if TYPE_CHECKING:
    from repro.service.store import Store, StoredRun

__all__ = [
    "Provenance",
    "build_provenance",
    "config_hash",
    "current_git_sha",
    "history_payload",
    "new_run_id",
    "record_run_payload",
]


def record_run_payload(
    store: Union[str, Store],
    *,
    scenario: str,
    kind: str,
    records: Sequence[Mapping[str, Any]],
    meta: Optional[Mapping[str, Any]] = None,
    endpoints: Optional[Mapping[str, Any]] = None,
    tags: Sequence[str] = (),
    job_id: Optional[str] = None,
) -> StoredRun:
    """Append one run's JSON-ready records to ``store`` (path or instance).

    The run is filed under ``meta["provenance"]``, which :func:`repro.api.run`
    stamps; ``job_id`` files it as that service job's result (see
    :meth:`~repro.service.store.Store.append`).
    """
    from repro.service.store import open_store

    handle, owns = open_store(store)
    try:
        return handle.append(
            scenario, kind, records, meta=meta, endpoints=endpoints, tags=tags, job_id=job_id
        )
    finally:
        if owns:
            handle.close()


def history_payload(
    store: Union[str, Store],
    scenario: str,
    *,
    metrics: Optional[Sequence[str]] = None,
    where: Optional[Mapping[str, Any]] = None,
    last: Optional[int] = None,
) -> Dict[str, Any]:
    """The trend-series view of one scenario's recorded history.

    This single builder backs both ``repro scenario history --json`` and the
    service's ``GET /v1/history/<scenario>`` endpoint, so the two surfaces
    return the same series for the same store by construction.  ``metrics``
    defaults to every metric observed; ``where`` restricts sweep records to
    one grid point (records whose params contain that subset); ``last``
    keeps the most recent K runs per series.  Each point is one run's
    identity plus ``value``, the mean over its matching records.  One read
    of the store builds every series.
    """
    from repro.service.store import open_store

    handle, owns = open_store(store)
    try:
        rows = handle.scenario_records(scenario)
    finally:
        if owns:
            handle.close()
    observed = set()
    # run_id -> (identity, {metric: values of the matching records}), run order
    runs: Dict[str, Any] = {}
    for identity, record in rows:
        observed.update(record["metrics"])
        _, values = runs.setdefault(identity["run_id"], (identity, {}))
        if where and any(record["params"].get(k) != v for k, v in where.items()):
            continue
        for name, value in record["metrics"].items():
            values.setdefault(name, []).append(value)
    names: List[str] = list(metrics) if metrics else sorted(observed)
    series = {}
    for name in names:
        points = [
            {**identity, "value": sum(float(v) for v in values[name]) / len(values[name])}
            for identity, values in runs.values()
            if name in values
        ]
        if last is not None:
            points = points[-max(1, int(last)):]
        if points:
            series[name] = points
    return {"scenario": scenario, "metrics": names, "series": series}

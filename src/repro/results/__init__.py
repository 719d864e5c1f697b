"""`repro.results`: the persistent run store and its query surfaces.

This subsystem turns finished runs into a queryable history:

* :class:`~repro.results.store.ResultsStore` — a schema-versioned SQLite
  store of every :class:`~repro.scenarios.runner.ScenarioRecord`, keyed by
  ``(scenario, config_hash, git_sha, started_at)``;
* :mod:`~repro.results.provenance` — run identity (``run_id``,
  ``config_hash``, ``git_sha``, ``started_at``) computed once and stamped
  by :func:`repro.api.run` onto every result.

Append paths: ``record_to=`` on :func:`repro.api.run` and
:func:`repro.scenarios.runner.run_scenario`, and the service task manager
(default on under ``repro serve``).  Query surfaces: ``repro scenario
history``, ``GET /v1/history`` on the experiment service, and this module's
:func:`history_payload` — the one builder both of those render, which is
what makes their trend series identical by construction.

Performance claims are not measured here: the perf ledger under
``benchmarks/ledger/`` is the repo's one benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.results.provenance import (
    Provenance,
    build_provenance,
    config_hash,
    current_git_sha,
    new_run_id,
)
from repro.results.store import (
    SCHEMA_VERSION,
    ResultsStore,
    StoredRun,
    open_store,
)

__all__ = [
    "Provenance",
    "ResultsStore",
    "SCHEMA_VERSION",
    "StoredRun",
    "build_provenance",
    "config_hash",
    "current_git_sha",
    "history_payload",
    "new_run_id",
    "open_store",
    "record_report",
    "record_run_payload",
]

#: Meta keys excluded from a report's config hash: they vary run to run even
#: when the configuration is identical.
_VOLATILE_META_KEYS = frozenset({"sweep_wall_seconds", "provenance"})


def record_run_payload(
    store: Union[str, ResultsStore],
    *,
    scenario: str,
    kind: str,
    records: Sequence[Mapping[str, Any]],
    meta: Optional[Mapping[str, Any]] = None,
    tags: Sequence[str] = (),
    provenance: Optional[Provenance] = None,
) -> StoredRun:
    """Append one run's JSON-ready records to ``store`` (path or instance)."""
    handle, owns = open_store(store)
    try:
        return handle.append(
            scenario, kind, records, meta=meta, tags=tags, provenance=provenance
        )
    finally:
        if owns:
            handle.close()


def record_report(store: Union[str, ResultsStore], report) -> StoredRun:
    """Append a :class:`~repro.scenarios.runner.ScenarioReport` to the store.

    The direct-library append path: ``run_scenario(..., record_to=...)``
    routes here.  Provenance is built from the report's *configuration*
    meta (volatile wall-clock keys excluded), so re-running the same
    scenario hashes identically.
    """
    stable_meta = {
        "name": report.name,
        "kind": report.kind,
        **{k: v for k, v in report.meta.items() if k not in _VOLATILE_META_KEYS},
    }
    provenance = build_provenance(stable_meta)
    return record_run_payload(
        store,
        scenario=report.name,
        kind=report.kind,
        records=[record.to_dict() for record in report.records],
        meta={**dict(report.meta), "title": report.title},
        tags=tuple(report.meta.get("tags", ())),
        provenance=provenance,
    )


def history_payload(
    store: Union[str, ResultsStore],
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
    one grid point; ``last`` keeps the most recent K runs per series.
    """
    handle, owns = open_store(store)
    try:
        names: List[str] = (
            list(metrics) if metrics else handle.metric_names(scenario)
        )
        series = {
            name: handle.trend(
                scenario, name, where=dict(where) if where else None, last=last
            )
            for name in names
        }
        return {
            "scenario": scenario,
            "metrics": names,
            "series": {name: points for name, points in series.items() if points},
        }
    finally:
        if owns:
            handle.close()

"""The controller half of the controller/task-manager split.

Transport-agnostic request handling, in the OpenStack Trove style: every
public method takes plain Python data (tenant, body dicts, query params)
and returns a JSON-ready dict, raising
:class:`~repro.service.exceptions.ServiceError` subclasses for every
failure.  The WSGI app (:mod:`repro.service.app`) is a thin routing shim
over this class, and the tests drive it directly — no sockets needed for
controller-level coverage.

Submission pipeline (``submit``):

1. :func:`~repro.service.schemas.get_action` — exactly one action key;
2. :func:`repro.api.apply_aliases` — deprecated spellings canonicalized;
3. :func:`~repro.service.schemas.validate_payload` — structural schema check
   (unknown fields, required fields, JSON types);
4. :func:`repro.api.request_from_action` + deep
   :meth:`~repro.api.RunRequest.validate` — full scenario-dataclass
   validation, so a bad grid is a 400 at submit time, not a FAILED job;
5. quota + rate-limit admission (:class:`~repro.service.quotas.QuotaManager`);
6. persist ``QUEUED``, wake a worker.

Job actions mirror submissions — the body holds exactly one action key
(``{"cancel": {}}``) dispatched to a ``_action_<name>`` method.
"""

from __future__ import annotations

import math
import warnings
from typing import Any, Dict, Mapping, Optional

from repro import telemetry
from repro.api import ApiError, apply_aliases, request_from_action
from repro.scenarios.registry import scenario_names
from repro.scenarios.spec import ScenarioError
from repro.service.exceptions import BadRequest, NotFound
from repro.service.jobs import JOB_STATES
from repro.service.quotas import QuotaManager
from repro.service.schemas import SCHEMAS, get_action, validate_payload
from repro.service.store import JobStore
from repro.service.taskmanager import TaskManager

__all__ = ["MAX_WAIT_S", "ServiceController"]

_MAX_PAGE = 200

#: Longest hold of one ``GET /v1/jobs/<id>?wait=S``, kept below the
#: client's default 30 s socket timeout so a held read never times it out.
MAX_WAIT_S = 20.0


def _clamp_limit(raw: Optional[Any], default: int) -> int:
    if raw is None:
        return default
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"limit must be an integer, got {raw!r}") from None
    if value < 1:
        raise BadRequest(f"limit must be >= 1, got {value}")
    return min(value, _MAX_PAGE)


def _wait_seconds(raw: Any) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"wait must be a number of seconds, got {raw!r}") from None
    if not math.isfinite(value) or value < 0:
        raise BadRequest(f"wait must be a finite number >= 0, got {raw!r}")
    return min(value, MAX_WAIT_S)


class ServiceController:
    """Validated request handling over a store, quotas, and a task manager."""

    schemas = SCHEMAS

    def __init__(
        self,
        store: JobStore,
        taskmanager: TaskManager,
        *,
        quotas: Optional[QuotaManager] = None,
        results: Optional[Any] = None,
    ):
        self.store = store
        self.taskmanager = taskmanager
        self.quotas = quotas if quotas is not None else QuotaManager()
        self.results = results

    # -- submissions --------------------------------------------------------- #
    def submit(self, tenant: str, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate and enqueue one submission; returns the queued job view."""
        action, payload = get_action(body)
        try:
            payload = apply_aliases(payload)
        except ApiError as exc:
            raise BadRequest(str(exc)) from exc
        validate_payload(action, payload)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                request = request_from_action(action, payload).validate()
        except (ApiError, ScenarioError) as exc:
            raise BadRequest(str(exc)) from exc
        self.quotas.check_submit(tenant, self.store.count_active(tenant))
        job = self.store.create(tenant, action, request.to_dict())
        self.taskmanager.notify()
        return {"job": job.to_dict()}

    # -- reads --------------------------------------------------------------- #
    def show(self, tenant: str, job_id: str, *, wait: Optional[Any] = None) -> Dict[str, Any]:
        """One job's full status view (tenant-scoped).

        With ``wait`` (seconds, capped at :data:`MAX_WAIT_S`) the answer is
        held until the job is terminal or the wait expires, whichever comes
        first.  Another tenant's job is a :class:`NotFound` before any hold.
        """
        if wait is None:
            job = self.store.get(job_id, tenant=tenant)
        else:
            job = self.store.wait_terminal(job_id, tenant=tenant, timeout=_wait_seconds(wait))
        return {"job": job.to_dict()}

    def index(
        self,
        tenant: str,
        *,
        marker: Optional[str] = None,
        limit: Optional[Any] = None,
        state: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Marker-paginated job listing for ``tenant``, oldest first."""
        if state is not None and state not in JOB_STATES:
            raise BadRequest(f"unknown state filter {state!r}; one of {list(JOB_STATES)}")
        jobs, next_marker = self.store.list_jobs(
            tenant=tenant,
            marker=marker,
            limit=_clamp_limit(limit, default=20),
            state=state,
        )
        body: Dict[str, Any] = {"jobs": [job.to_dict() for job in jobs]}
        if next_marker is not None:
            body["next_marker"] = next_marker
        return body

    def records(
        self,
        tenant: str,
        job_id: str,
        *,
        offset: Optional[Any] = None,
        limit: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Offset-paginated result records of one (finished) job."""
        try:
            offset_value = int(offset) if offset is not None else 0
        except (TypeError, ValueError):
            raise BadRequest(f"offset must be an integer, got {offset!r}") from None
        if offset_value < 0:
            raise BadRequest(f"offset must be >= 0, got {offset_value}")
        records, total = self.store.get_records(
            job_id,
            tenant=tenant,
            offset=offset_value,
            limit=_clamp_limit(limit, default=50),
        )
        return {
            "records": records,
            "offset": offset_value,
            "count": len(records),
            "total": total,
        }

    # -- run history ---------------------------------------------------------- #
    def _results_store(self) -> Any:
        if self.results is None:
            raise NotFound(
                "run history is not enabled on this service "
                "(start it with a results store, e.g. repro serve --results-db)"
            )
        return self.results

    def history_index(self, _tenant: str) -> Dict[str, Any]:
        """Every scenario with recorded history (global, not tenant-scoped)."""
        return {"scenarios": self._results_store().scenarios()}

    def history_show(
        self,
        _tenant: str,
        scenario: str,
        *,
        metrics: Optional[str] = None,
        last: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """One scenario's trend series — the same payload the CLI renders.

        Built by :func:`repro.results.history_payload`, which also backs
        ``repro scenario history --json``; the two surfaces therefore return
        identical series for the same store by construction.
        """
        store = self._results_store()
        names = [m.strip() for m in metrics.split(",") if m.strip()] if metrics else None
        last_value: Optional[int] = None
        if last is not None:
            try:
                last_value = int(last)
            except (TypeError, ValueError):
                raise BadRequest(f"last must be an integer, got {last!r}") from None
            if last_value < 1:
                raise BadRequest(f"last must be >= 1, got {last_value}")
        from repro.results import history_payload

        payload = history_payload(store, scenario, metrics=names, last=last_value)
        if not payload["series"]:
            raise NotFound(f"no recorded history for scenario {scenario!r}")
        return payload

    def history_runs(
        self,
        _tenant: str,
        scenario: str,
        *,
        marker: Optional[str] = None,
        limit: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Marker-paginated stored runs of one scenario, oldest first."""
        runs, next_marker = self._results_store().runs(
            scenario=scenario,
            marker=marker,
            limit=_clamp_limit(limit, default=20),
        )
        body: Dict[str, Any] = {"runs": [run.to_dict() for run in runs]}
        if next_marker is not None:
            body["next_marker"] = next_marker
        return body

    # -- job actions ---------------------------------------------------------- #
    def job_action(self, tenant: str, job_id: str, body: Mapping[str, Any]) -> Dict[str, Any]:
        """Dispatch ``{action: payload}`` on an existing job (Trove style)."""
        if not isinstance(body, Mapping) or len(body) != 1:
            raise BadRequest(
                "job action body must have exactly one action key, e.g. {\"cancel\": {}}"
            )
        (name, payload), = body.items()
        handler = getattr(self, f"_action_{name}", None)
        if handler is None:
            raise BadRequest(f"unknown job action {name!r}; one of ['cancel']")
        return handler(tenant, job_id, payload or {})

    def _action_cancel(
        self, tenant: str, job_id: str, _payload: Mapping[str, Any]
    ) -> Dict[str, Any]:
        job = self.store.request_cancel(job_id, tenant=tenant)
        return {"job": job.to_dict()}

    # -- introspection --------------------------------------------------------- #
    def describe(self) -> Dict[str, Any]:
        """Service metadata: actions, schemas, registered scenarios, quotas."""
        return {
            "actions": sorted(self.schemas),
            "schemas": self.schemas,
            "scenarios": scenario_names(),
            "quotas": {
                "max_active_jobs": self.quotas.max_active_jobs,
                "rate": self.quotas.rate,
                "burst": self.quotas.burst,
            },
            "taskmanager": self.taskmanager.describe(),
            "history_enabled": self.results is not None,
        }

    def health(self) -> Dict[str, Any]:
        """Liveness plus queue-health gauges (depth per state, worker count)."""
        counts = self.store.counts()
        queue = {
            "depth": counts.get("QUEUED", 0),
            "running": counts.get("RUNNING", 0),
            "states": counts,
            "workers": self.taskmanager.num_workers,
        }
        if telemetry.metrics_enabled():
            registry = telemetry.get_metrics()
            registry.gauge(
                "repro_job_queue_depth", help="Jobs waiting in the queue"
            ).set(queue["depth"])
            registry.gauge(
                "repro_service_workers", help="TaskManager worker threads"
            ).set(queue["workers"])
        return {
            "status": "ok",
            "taskmanager_running": self.taskmanager.running,
            "queue": queue,
        }

    def metrics(self) -> str:
        """Prometheus text exposition of the process metrics registry.

        Refreshes the queue gauges first so a scrape never reports stale
        depth; the registry itself accumulates counters/histograms from the
        task manager and store as jobs flow through.
        """
        if telemetry.metrics_enabled():
            counts = self.store.counts()
            registry = telemetry.get_metrics()
            registry.gauge(
                "repro_job_queue_depth", help="Jobs waiting in the queue"
            ).set(counts.get("QUEUED", 0))
            registry.gauge(
                "repro_jobs_running", help="Jobs currently executing"
            ).set(counts.get("RUNNING", 0))
            registry.gauge(
                "repro_service_workers", help="TaskManager worker threads"
            ).set(self.taskmanager.num_workers)
        return telemetry.get_metrics().render()

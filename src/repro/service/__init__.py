"""Multi-tenant experiment service: the simulator as a long-running API.

This package turns the one-shot harness into a service in the OpenStack
Trove mould — a strict split between the **controller** (validates HTTP
submissions against schemas derived from the frozen scenario dataclasses,
enforces per-tenant quotas and token-bucket rate limits) and the **task
manager** (a worker pool claiming jobs from a persistent SQLite queue and
executing them through the one :mod:`repro.api` façade).  Jobs move through
the lifecycle ``QUEUED → RUNNING → DONE/FAILED`` with cooperative
cancellation (``→ CANCELLED``), results are paginated, and the queue
survives service restarts.

Layers (each its own module, composable in tests):

* :mod:`~repro.service.jobs` — the lifecycle state machine;
* :mod:`~repro.service.store` — the one schema-versioned SQLite store of
  jobs and their runs;
* :mod:`~repro.service.quotas` — per-tenant admission control;
* :mod:`~repro.service.schemas` — per-action schemas from the dataclasses;
* :mod:`~repro.service.taskmanager` — the execution worker pool;
* :mod:`~repro.service.controller` — transport-agnostic request handling;
* :mod:`~repro.service.app` — the stdlib WSGI front end + server bundle;
* :mod:`~repro.service.client` — the stdlib HTTP client.

>>> from repro.service import ExperimentService, ServiceClient  # doctest: +SKIP
>>> with ExperimentService(port=0) as service:                  # doctest: +SKIP
...     client = ServiceClient(service.url)
...     job = client.submit("scenario", {"name": "quickstart"})
...     done = client.wait(job["id"])
"""

from repro.service.app import ExperimentService, make_wsgi_app, serve
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.controller import ServiceController
from repro.service.exceptions import (
    BadRequest,
    Conflict,
    IllegalTransition,
    NotFound,
    QuotaExceeded,
    RateLimited,
    ServiceError,
)
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JOB_STATES,
    Job,
    QUEUED,
    RUNNING,
    TRANSITIONS,
    validate_transition,
)
from repro.service.quotas import QuotaManager, TokenBucket
from repro.service.schemas import SCHEMAS, get_action, validate_payload
from repro.service.store import SCHEMA_VERSION, Store
from repro.service.taskmanager import TaskManager

__all__ = [
    "BadRequest",
    "CANCELLED",
    "Conflict",
    "DONE",
    "ExperimentService",
    "FAILED",
    "IllegalTransition",
    "JOB_STATES",
    "Job",
    "NotFound",
    "QUEUED",
    "QuotaExceeded",
    "QuotaManager",
    "RUNNING",
    "RateLimited",
    "SCHEMAS",
    "SCHEMA_VERSION",
    "ServiceClient",
    "ServiceClientError",
    "ServiceController",
    "ServiceError",
    "Store",
    "TRANSITIONS",
    "TaskManager",
    "TokenBucket",
    "get_action",
    "make_wsgi_app",
    "serve",
    "validate_payload",
    "validate_transition",
]

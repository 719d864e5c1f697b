"""Stdlib WSGI front end for the experiment service.

No web framework: :func:`make_wsgi_app` closes a plain WSGI callable over a
:class:`~repro.service.controller.ServiceController` and routes the small
REST surface onto it::

    GET    /v1/health                     liveness + queue depth + workers
    GET    /v1/metrics                    Prometheus text exposition
    GET    /v1/                           actions, schemas, scenarios, quotas
    POST   /v1/jobs                       submit {action: payload}   → 202
    GET    /v1/jobs?marker=&limit=&state= list jobs (marker-paginated)
    GET    /v1/jobs/<id>                  job status
    GET    /v1/jobs/<id>?wait=S           job status once terminal, or after S s
    GET    /v1/jobs/<id>/records?offset=&limit=  result records
    POST   /v1/jobs/<id>/action           e.g. {"cancel": {}}
    GET    /v1/history                    scenarios with recorded history
    GET    /v1/history/<scenario>?metrics=&last=  per-metric trend series
    GET    /v1/history/<scenario>/runs?marker=&limit=  stored runs (paginated)

Tenancy is the ``X-Tenant`` request header (default ``"default"``) — enough
to exercise real multi-tenant quota/rate-limit behaviour without inventing
an auth system.  Every response is JSON; every
:class:`~repro.service.exceptions.ServiceError` maps to its status code
with a structured body.

:class:`ExperimentService` bundles store + task manager + controller +
a threaded :mod:`wsgiref` server into one object with ``start``/``stop``
(port 0 gives an OS-assigned port, which the tests and the perf ledger
use), and :func:`serve` is the blocking entry point behind ``repro serve``.
"""

from __future__ import annotations

import json
import threading
from socketserver import ThreadingMixIn
from typing import Any, Callable, Dict, Iterable, Optional, Tuple
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro import telemetry
from repro.api import run as api_run
from repro.service.controller import ServiceController
from repro.service.exceptions import BadRequest, NotFound, ServiceError
from repro.service.quotas import QuotaManager
from repro.service.store import Store
from repro.service.taskmanager import Runner, TaskManager

__all__ = ["ExperimentService", "make_wsgi_app", "serve"]

_STATUS_TEXT = {
    200: "200 OK",
    202: "202 Accepted",
    400: "400 Bad Request",
    403: "403 Forbidden",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
}

_MAX_BODY = 1 << 20  # 1 MiB — far above any legitimate submission


def _read_json_body(environ: Dict[str, Any]) -> Dict[str, Any]:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        raise BadRequest("invalid Content-Length header") from None
    if length > _MAX_BODY:
        raise BadRequest(f"request body too large ({length} bytes, max {_MAX_BODY})")
    raw = environ["wsgi.input"].read(length) if length else b""
    if not raw:
        raise BadRequest("request body must be a JSON object")
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise BadRequest(f"request body must be a JSON object, got {type(body).__name__}")
    return body


def _query(environ: Dict[str, Any]) -> Dict[str, str]:
    parsed = parse_qs(environ.get("QUERY_STRING", ""), keep_blank_values=False)
    return {key: values[-1] for key, values in parsed.items()}


def make_wsgi_app(controller: ServiceController) -> Callable[..., Iterable[bytes]]:
    """A WSGI callable routing the ``/v1`` surface onto ``controller``."""

    def handle(environ: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        method = environ["REQUEST_METHOD"].upper()
        path = environ.get("PATH_INFO", "/").rstrip("/") or "/"
        tenant = environ.get("HTTP_X_TENANT", "default").strip() or "default"
        query = _query(environ)

        if path == "/v1/health" and method == "GET":
            return 200, controller.health()
        if path in ("/v1", "/") and method == "GET":
            return 200, controller.describe()
        if path == "/v1/jobs":
            if method == "POST":
                return 202, controller.submit(tenant, _read_json_body(environ))
            if method == "GET":
                return 200, controller.index(
                    tenant,
                    marker=query.get("marker"),
                    limit=query.get("limit"),
                    state=query.get("state"),
                )
            raise _method_not_allowed(method, path)

        parts = path.lstrip("/").split("/")
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "history":
            if method != "GET":
                raise _method_not_allowed(method, path)
            if len(parts) == 2:
                return 200, controller.history_index(tenant)
            # Scenario names may contain "/" (experiment/<workload>/<algo>),
            # so everything after /v1/history/ up to a trailing "runs" is the
            # scenario key.
            if parts[-1] == "runs" and len(parts) > 3:
                scenario = "/".join(parts[2:-1])
                return 200, controller.history_runs(
                    tenant,
                    scenario,
                    marker=query.get("marker"),
                    limit=query.get("limit"),
                )
            scenario = "/".join(parts[2:])
            return 200, controller.history_show(
                tenant,
                scenario,
                metrics=query.get("metrics"),
                last=query.get("last"),
            )
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "jobs":
            job_id = parts[2]
            if len(parts) == 3:
                if method == "GET":
                    return 200, controller.show(tenant, job_id, wait=query.get("wait"))
                raise _method_not_allowed(method, path)
            if len(parts) == 4 and parts[3] == "records" and method == "GET":
                return 200, controller.records(
                    tenant, job_id, offset=query.get("offset"), limit=query.get("limit")
                )
            if len(parts) == 4 and parts[3] == "action" and method == "POST":
                return 200, controller.job_action(
                    tenant, job_id, _read_json_body(environ)
                )
        raise NotFound(f"no route for {method} {path}")

    def app(environ: Dict[str, Any], start_response) -> Iterable[bytes]:
        # The one non-JSON route: Prometheus scrapers expect a plain-text
        # exposition body, so it bypasses the JSON pipeline entirely.
        path = environ.get("PATH_INFO", "/").rstrip("/") or "/"
        if path == "/v1/metrics" and environ["REQUEST_METHOD"].upper() == "GET":
            payload = controller.metrics().encode("utf-8")
            start_response(
                _STATUS_TEXT[200],
                [
                    ("Content-Type", "text/plain; version=0.0.4; charset=utf-8"),
                    ("Content-Length", str(len(payload))),
                ],
            )
            return [payload]
        try:
            status, body = handle(environ)
        except ServiceError as exc:
            status, body = exc.status, exc.to_dict()
        except Exception as exc:  # noqa: BLE001 — never leak a traceback page
            err = ServiceError(f"internal error: {type(exc).__name__}: {exc}")
            status, body = err.status, err.to_dict()
        payload = json.dumps(body).encode("utf-8")
        start_response(
            _STATUS_TEXT.get(status, f"{status} Unknown"),
            [
                ("Content-Type", "application/json"),
                ("Content-Length", str(len(payload))),
            ],
        )
        return [payload]

    return app


def _method_not_allowed(method: str, path: str) -> ServiceError:
    error = ServiceError(f"method {method} not allowed on {path}")
    error.status = 405
    error.code = "method_not_allowed"
    return error


class _ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
    """Thread-per-request so a long poll can't starve submissions."""

    daemon_threads = True


class _QuietHandler(WSGIRequestHandler):
    """Suppress per-request stderr logging (the CLI logs at a higher level)."""

    def log_message(self, *args: Any) -> None:  # noqa: D102
        pass


class ExperimentService:
    """Store + task manager + controller + HTTP server, wired together.

    >>> service = ExperimentService(db_path=":memory:", port=0)  # doctest: +SKIP
    >>> service.start()  # doctest: +SKIP
    >>> service.url      # doctest: +SKIP
    'http://127.0.0.1:49512'
    >>> service.stop()   # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        db_path: str = ":memory:",
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        quotas: Optional[QuotaManager] = None,
        runner: Runner = api_run,
        results_db: Optional[str] = None,
    ):
        # The service always records lifecycle metrics (queue wait, run
        # durations, outcome counters) for /v1/metrics — enabling the
        # registry costs nothing on the training hot loop, which is guarded
        # by the separate tracing flag.
        telemetry.configure(metrics=True)
        self.store = Store(db_path)
        # Where every finished job's run is filed and /v1/history reads:
        # the job file itself, unless the deployment names a separate one.
        self.runs = self.store if results_db is None else Store(results_db)
        self.taskmanager = TaskManager(self.store, workers=workers, runner=runner, runs=self.runs)
        self.controller = ServiceController(self.store, self.taskmanager, quotas=quotas)
        self.app = make_wsgi_app(self.controller)
        self._host = host
        self._port = port
        self._server: Optional[WSGIServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError("service is not started")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ExperimentService":
        """Start workers and serve HTTP in a background thread."""
        self.taskmanager.start()
        self._server = make_server(
            self._host,
            self._port,
            self.app,
            server_class=_ThreadingWSGIServer,
            handler_class=_QuietHandler,
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-service-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the HTTP server, the workers, and close the stores."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.taskmanager.stop()
        self.store.close()
        if self.runs is not self.store:
            self.runs.close()

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    db_path: str = "repro_jobs.sqlite3",
    workers: int = 2,
    quotas: Optional[QuotaManager] = None,
    results_db: Optional[str] = "repro_results.sqlite3",
) -> None:
    """Blocking entry point behind ``repro serve`` (Ctrl-C to stop).

    Every finished job's run is filed in ``results_db`` and served back via
    ``GET /v1/history``; ``None`` files runs in ``db_path`` with the jobs.
    """
    service = ExperimentService(
        db_path=db_path,
        host=host,
        port=port,
        workers=workers,
        quotas=quotas,
        results_db=results_db,
    ).start()
    print(f"repro service listening on {service.url} "
          f"(db={db_path}, results_db={results_db}, workers={workers})")
    try:
        service._thread.join()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()

"""Thin stdlib HTTP client for the experiment service.

Mirrors the CRUD split of the container-service-extension client: one
:class:`ServiceClient` per (server, tenant) with a method per endpoint,
returning parsed JSON bodies and raising :class:`ServiceClientError`
(status + structured error payload) on non-2xx responses.  Used by
``repro submit``, the end-to-end tests, and the load benchmark.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Union
from urllib.parse import urlencode

from repro.service.jobs import TERMINAL_STATES

__all__ = ["ServiceClient", "ServiceClientError"]


class ServiceClientError(Exception):
    """A non-2xx service response, with the parsed error body when present."""

    def __init__(self, status: int, body: Dict[str, Any]):
        error = body.get("error", {}) if isinstance(body, dict) else {}
        message = error.get("message") or f"service returned HTTP {status}"
        super().__init__(message)
        self.status = status
        self.code = error.get("code", "unknown")
        self.body = body


class ServiceClient:
    """JSON client over :mod:`urllib` — no third-party HTTP stack.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8080"`` (no trailing slash needed).
    tenant:
        Sent as the ``X-Tenant`` header on every request.
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, *, tenant: str = "default", timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout

    # -- transport ----------------------------------------------------------- #
    def _send(self, request: urllib.request.Request) -> str:
        """Send ``request`` and return the decoded body of a 2xx response.

        A non-2xx response raises :class:`ServiceClientError`.  Its body is
        read and the response closed here: the ``HTTPError`` is chained as
        ``__cause__``, so an open one would hold its socket for as long as
        the raised error lives.
        """
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = {}
            finally:
                exc.close()
            raise ServiceClientError(exc.code, payload) from exc

    def _request(
        self,
        method: str,
        path: str,
        *,
        body: Optional[Mapping[str, Any]] = None,
        params: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        url = self.base_url + path
        if params:
            clean = {k: v for k, v in params.items() if v is not None}
            if clean:
                url += "?" + urlencode(clean)
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json", "X-Tenant": self.tenant},
        )
        return json.loads(self._send(request))

    # -- endpoints ------------------------------------------------------------ #
    def describe(self) -> Dict[str, Any]:
        return self._request("GET", "/v1")

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def metrics(self) -> str:
        """Raw Prometheus text exposition (``GET /v1/metrics``, not JSON)."""
        request = urllib.request.Request(
            self.base_url + "/v1/metrics",
            method="GET",
            headers={"X-Tenant": self.tenant},
        )
        return self._send(request)

    def submit(self, action: str, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Submit ``{action: payload}``; returns the queued job view."""
        return self._request("POST", "/v1/jobs", body={action: dict(payload)})["job"]

    def job(self, job_id: str, *, wait: Optional[float] = None) -> Dict[str, Any]:
        """One job's status view.

        With ``wait`` the server holds the answer until the job is terminal
        or ``wait`` seconds pass (the server caps the hold).
        """
        return self._request("GET", f"/v1/jobs/{job_id}", params={"wait": wait})["job"]

    def jobs(
        self,
        *,
        marker: Optional[str] = None,
        limit: Optional[int] = None,
        state: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self._request(
            "GET", "/v1/jobs", params={"marker": marker, "limit": limit, "state": state}
        )

    def records(
        self, job_id: str, *, offset: int = 0, limit: Optional[int] = None
    ) -> Dict[str, Any]:
        return self._request(
            "GET", f"/v1/jobs/{job_id}/records", params={"offset": offset, "limit": limit}
        )

    def iter_records(self, job_id: str, *, page_size: int = 50) -> Iterator[Dict[str, Any]]:
        """Yield every record, paging with ``offset`` under the hood."""
        offset = 0
        while True:
            page = self.records(job_id, offset=offset, limit=page_size)
            yield from page["records"]
            offset += page["count"]
            if page["count"] == 0 or offset >= page["total"]:
                return

    def history_scenarios(self) -> Dict[str, Any]:
        """Scenarios with recorded run history (``GET /v1/history``)."""
        return self._request("GET", "/v1/history")

    def history(
        self,
        scenario: str,
        *,
        metrics: Optional[Union[str, Sequence[str]]] = None,
        last: Optional[int] = None,
    ) -> Dict[str, Any]:
        """One scenario's trend series — the ``history_payload`` shape.

        ``metrics`` restricts the series: a comma-separated string or a
        sequence of metric names; ``last`` keeps only the most recent K
        runs per series.
        """
        if metrics is not None and not isinstance(metrics, str):
            metrics = ",".join(metrics)
        return self._request(
            "GET",
            f"/v1/history/{scenario}",
            params={"metrics": metrics, "last": last},
        )

    def history_runs(
        self,
        scenario: str,
        *,
        marker: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Marker-paginated stored runs of one scenario, oldest first."""
        return self._request(
            "GET",
            f"/v1/history/{scenario}/runs",
            params={"marker": marker, "limit": limit},
        )

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/v1/jobs/{job_id}/action", body={"cancel": {}})["job"]

    def wait(
        self, job_id: str, *, timeout: float = 300.0, poll_interval: float = 0.1
    ) -> Dict[str, Any]:
        """Long-poll until the job reaches a terminal state (or raise TimeoutError).

        Each status request asks the server to hold it for up to
        ``poll_interval`` seconds, so ``poll_interval`` is the longest one
        request is held and the answer arrives as soon as the job ends.  An
        early non-terminal answer (a server that does not hold) is followed
        by a sleep, so there is never more than one request per
        ``poll_interval``.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            job = self.job(job_id, wait=max(min(poll_interval, deadline - asked), 0.0))
            if job["state"] in TERMINAL_STATES:
                return job
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout:.0f}s"
                )
            time.sleep(max(min(asked + poll_interval, deadline) - now, 0.0))

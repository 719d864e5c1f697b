"""Per-tenant quotas and token-bucket rate limiting.

Two independent admission controls, both enforced at submission time by the
controller:

* **Active-job quota** — at most ``max_active_jobs`` jobs in
  ``QUEUED``/``RUNNING`` per tenant (a *standing* limit on queue depth);
  violations are :class:`~repro.service.exceptions.QuotaExceeded` (403).
* **Token bucket** — each tenant's bucket holds up to ``burst`` tokens and
  refills at ``rate`` tokens/second; each submission spends one.  This caps
  the *sustained* submission rate while allowing short bursts; violations
  are :class:`~repro.service.exceptions.RateLimited` (429) with a
  ``retry_after`` hint.

The clock is injectable so the tests are deterministic.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from repro.service.exceptions import QuotaExceeded, RateLimited

__all__ = ["QuotaManager", "TokenBucket"]


class TokenBucket:
    """A classic token bucket: ``burst`` capacity, ``rate`` tokens/second."""

    def __init__(self, rate: float, burst: float, *, clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError(f"rate and burst must be positive, got {rate}, {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._stamp = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._stamp)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._stamp = now

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; never blocks."""
        with self._lock:
            self._refill(self._clock())
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0 if already are)."""
        with self._lock:
            self._refill(self._clock())
            deficit = tokens - self._tokens
            return max(0.0, deficit / self.rate)


class QuotaManager:
    """Admission control for submissions, one bucket per tenant.

    Parameters
    ----------
    max_active_jobs:
        Per-tenant cap on ``QUEUED + RUNNING`` jobs; ``None`` disables the
        quota.
    rate / burst:
        Token-bucket parameters applied per tenant; ``rate=None`` disables
        rate limiting.
    """

    def __init__(
        self,
        *,
        max_active_jobs: Optional[int] = 8,
        rate: Optional[float] = 10.0,
        burst: float = 20.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_active_jobs is not None and max_active_jobs < 1:
            raise ValueError(f"max_active_jobs must be >= 1, got {max_active_jobs}")
        self.max_active_jobs = max_active_jobs
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()

    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
                self._buckets[tenant] = bucket
            return bucket

    def check_submit(self, tenant: str, active_jobs: int) -> None:
        """Admit or reject one submission for ``tenant``.

        ``active_jobs`` is the tenant's current QUEUED+RUNNING count (the
        store's :meth:`~repro.service.store.Store.count_active`).  Raises
        :class:`QuotaExceeded` or :class:`RateLimited`; returns silently on
        admission (the rate token is spent).
        """
        if self.max_active_jobs is not None and active_jobs >= self.max_active_jobs:
            raise QuotaExceeded(
                f"tenant {tenant!r} has {active_jobs} active jobs "
                f"(quota {self.max_active_jobs}); wait for one to finish or cancel",
                details={"active_jobs": active_jobs, "quota": self.max_active_jobs},
            )
        if self.rate is None:
            return
        bucket = self._bucket(tenant)
        if not bucket.try_acquire():
            raise RateLimited(
                f"tenant {tenant!r} is rate limited; retry later",
                details={"retry_after": round(bucket.retry_after(), 3)},
            )

"""The engine's threads: usable cores, one shard pool, one BLAS thread.

:class:`~repro.engine.replica_exec.BatchedReplicaExecutor` splits the replica
axis into row shards and runs them through :func:`run_shards` — one Python
thread per usable core.  That only pays while NumPy's BLAS stays out of the
way: OpenBLAS's own worker threads spin-wait on the very core a shard thread
needs, so :func:`pin_blas` sets every OpenBLAS mapped into the process to one
thread, and sharding stays off unless that worked.  The pin goes through the
library's C API because an environment variable is read when NumPy is
imported, which is usually before anything here runs.

Everything is created on first use; importing this module starts nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Any, Callable, List, Optional, Sequence

_lock = threading.Lock()
_pool = None                          # concurrent.futures.ThreadPoolExecutor
_UNKNOWN = object()
_blas_before: Any = _UNKNOWN          # pin_blas()'s remembered answer


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask, not the host's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity masks
        return os.cpu_count() or 1


#: Builds decorate the two symbols differently: plain, ILP64 (``64_``), and
#: the ``scipy_`` prefix of the copy bundled in the NumPy / SciPy wheels.
_THREAD_SYMBOLS = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("", "scipy_")
    for suffix in ("", "64_", "_64_")
]


def _openblas_controls() -> List[tuple]:
    """``(get_num_threads, set_num_threads)`` of every OpenBLAS mapped here."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split(None, 5)[5].strip() for line in handle if "openblas" in line}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter, setter = getattr(lib, get_name), getattr(lib, set_name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                controls.append((getter, setter))
                break
    return controls


def pin_blas() -> Optional[int]:
    """Set every loaded OpenBLAS to one thread.

    Returns the thread count found before the pin, or None when no OpenBLAS
    could be brought to one thread.  Looks once per process (and once more in
    a forked child); later calls return the remembered answer.
    """
    global _blas_before
    if _blas_before is _UNKNOWN:
        with _lock:
            if _blas_before is _UNKNOWN:
                controls = _openblas_controls()
                before = max((getter() for getter, _ in controls), default=None)
                for _, setter in controls:
                    setter(1)
                pinned = bool(controls) and all(getter() == 1 for getter, _ in controls)
                _blas_before = before if pinned else None
    return _blas_before


def _share_malloc_arena() -> None:
    """Keep the shard threads out of malloc arenas of their own (glibc only).

    A thread's first allocation otherwise opens a private arena that grows to
    the peak of that thread's activations on top of the caller's (measured
    +5 MiB RSS on the 8-replica transformer).  Allocation happens under the
    GIL, so one shared arena costs no lock contention.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-8, 1)  # M_ARENA_MAX


def _shard_pool():
    global _pool
    if _pool is None:
        with _lock:
            if _pool is None:
                from concurrent.futures import ThreadPoolExecutor

                _share_malloc_arena()
                _pool = ThreadPoolExecutor(
                    max_workers=max(usable_cores() - 1, 1), thread_name_prefix="repro-shard"
                )
    return _pool


def run_shards(fn: Callable[[Any], Any], shards: Sequence[Any]) -> List[Any]:
    """``[fn(shard) for shard in shards]``, one shard per thread.

    The first shard runs on the calling thread, the rest on the process-wide
    pool (never created for a one-element list).  Every shard is joined
    before this returns or raises; a shard's exception is re-raised here.
    """
    futures = [_shard_pool().submit(fn, shard) for shard in shards[1:]]
    try:
        head = fn(shards[0])
    finally:
        for future in futures:
            future.exception()  # join: no shard outlives the call, not even a failed one
    return [head] + [future.result() for future in futures]


def _forget_threads_after_fork() -> None:
    # Only the forking thread exists in the child: the pool's workers are
    # gone (a submit would never be picked up) and OpenBLAS re-initialises
    # its own threads, so the child looks again before it shards.
    global _lock, _pool, _blas_before
    _lock = threading.Lock()
    _pool = None
    _blas_before = _UNKNOWN


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_threads_after_fork)

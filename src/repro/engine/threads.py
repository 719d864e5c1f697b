"""The engine's threads and processes: usable cores, one shard pool, forked
shares, one BLAS thread.

:class:`~repro.engine.replica_exec.BatchedReplicaExecutor` splits the replica
axis into row shards and runs them through :func:`run_shards` — one Python
thread per usable core.  The scenario runner deals a scenario's independent
runs into shares and runs them through :func:`run_forked` — one forked child
per extra share.  Both only pay while NumPy's BLAS stays out of the way:
OpenBLAS's own worker threads spin-wait on the very core a shard thread or a
child needs, so :func:`pin_blas` sets every OpenBLAS mapped into the process
to one thread (a cluster built on two or more usable cores calls it), and
neither fans out unless that worked.  The pin goes through the library's C
API because an environment variable is read when NumPy is imported, which is
usually before anything here runs.  The same goes for the two glibc
allocator settings made here through ``mallopt``: one shared arena for the
shard threads (:func:`_share_malloc_arena`) and mmap / trim thresholds held
from the first large step (:func:`hold_malloc_thresholds`).

Everything is created on first use; importing this module starts nothing.
"""

from __future__ import annotations

import ctypes
import gc
import os
import pickle
import threading
import traceback
import warnings
from typing import Any, Callable, List, Optional, Sequence

_lock = threading.Lock()
_pool = None                          # concurrent.futures.ThreadPoolExecutor
_UNKNOWN = object()
_blas_before: Any = _UNKNOWN          # pin_blas()'s remembered answer
_thresholds_held = False              # hold_malloc_thresholds() has run

#: glibc's default ``M_MMAP_THRESHOLD``: a block this large or larger is
#: mmapped on its own until the threshold moves.
MMAP_THRESHOLD_DEFAULT = 128 * 1024


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
    could be brought to one thread.  Looks once per process (a forked child
    keeps its parent's answer); later calls return the remembered answer.
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


def _mallopt() -> Optional[Callable[[int, int], int]]:
    """glibc's ``mallopt`` through ctypes, or None where libc has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _share_malloc_arena() -> None:
    """Keep the shard threads out of malloc arenas of their own (glibc only).

    A thread's first allocation otherwise opens a private arena that grows to
    the peak of that thread's activations on top of the caller's (measured
    +5 MiB RSS on the 8-replica transformer).  Allocation happens under the
    GIL, so one shared arena costs no lock contention.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(-8, 1)  # M_ARENA_MAX


def hold_malloc_thresholds() -> None:
    """Hold glibc's mmap and trim thresholds where its dynamic rule ends up.

    glibc maps a block of :data:`MMAP_THRESHOLD_DEFAULT` or more on its own
    and gives the heap top back to the kernel once more than the trim
    threshold is free there.  It raises both thresholds only as larger mapped
    blocks are freed, so until one is larger than about half of what a step
    frees, every step faults its activations in afresh (≈5,000 minor page
    faults per ``transformer`` N=8 step, until the first evaluation frees its
    11.4 MiB logits block).  Setting ``M_MMAP_THRESHOLD`` to 32 MiB (the
    dynamic rule's 64-bit ceiling) and ``M_TRIM_THRESHOLD`` to twice that
    keeps those pages from the first step.  Once per process; a forked child
    inherits the settings, so the flag survives the fork.  A no-op where libc
    has no ``mallopt``.
    """
    global _thresholds_held
    if _thresholds_held:
        return
    with _lock:
        if not _thresholds_held:
            mallopt = _mallopt()
            if mallopt is not None:
                mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
                mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
            _thresholds_held = True


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


class ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked share.

    :func:`run_forked` sets it as the ``__cause__`` of the re-raised
    exception, so the child's frames show under the parent's.
    """


def run_forked(fn: Callable[[Any], Any], shares: Sequence[Any]) -> List[Any]:
    """``[fn(share) for share in shares]``, one process per share.

    The first share runs in the calling process; every other one in an
    ``os.fork()``ed child that pickles its result (or its exception) into a
    pipe and leaves through ``os._exit``, whatever ``fn`` raises — no
    ``SystemExit`` or atexit hook of the caller runs twice.  Every child is
    read and reaped before this returns or raises; a child's exception is
    re-raised here with its type and message.  A one-element list forks
    nothing.  Forking is only safe from a process with one thread: the
    caller checks that.
    """
    children = []  # (pid, read end of the child's pipe)
    if len(shares) > 1:
        # While children live, no collection on either side walks the
        # objects they share: a full one would write to, and so copy, every
        # page holding them.
        gc.freeze()
    try:
        for share in shares[1:]:
            children.append(_fork_share(fn, share))
        head = fn(shares[0])
    finally:
        # Reap every child, even when the caller's share or a fork failed.
        outcomes = [_reap_share(pid, fd) for pid, fd in children]
        if len(shares) > 1:
            gc.unfreeze()
    results = [head]
    for ok, value, child_tb in outcomes:
        if not ok:
            if child_tb:
                value.__cause__ = ChildTraceback(child_tb)
            raise value
        results.append(value)
    return results


def _fork_share(fn: Callable[[Any], Any], share: Any) -> tuple:
    """Fork one child that runs ``fn(share)``; ``(pid, read end of its pipe)``."""
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # Python >= 3.12 warns in the parent, after the child exists, when
        # any other OS thread is alive.  The only one a one-thread caller can
        # have is OpenBLAS's worker, and OpenBLAS's own at-fork handler stops
        # it before the fork.
        warnings.filterwarnings(
            "ignore", message="This process .* is multi-threaded", category=DeprecationWarning
        )
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
    if pid:
        os.close(write_end)
        return pid, read_end
    status = 1
    try:
        os.close(read_end)
        try:
            outcome = (True, fn(share), "")
        except BaseException as exc:  # noqa: BLE001 - sent to the parent, never re-raised here
            outcome = (False, exc, traceback.format_exc())
        try:
            payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - an unpicklable result or exception
            what = type(outcome[1]).__name__
            error = RuntimeError(f"forked share could not send its {what}: {exc}")
            payload = pickle.dumps((False, error, traceback.format_exc()))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _reap_share(pid: int, read_end: int) -> tuple:
    """``(ok, result or exception, child traceback)`` of one forked share."""
    with os.fdopen(read_end, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        error = ChildProcessError(f"forked share {pid} sent no result (wait status {status})")
        return False, error, ""
    try:
        return pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - e.g. an exception class that cannot be rebuilt
        error = RuntimeError(f"forked share {pid} sent a result that cannot be read: {exc}")
        return False, error, ""


def _forget_threads_after_fork() -> None:
    # Only the forking thread exists in the child: the pool's workers are
    # gone, so a submit would never be picked up.  The BLAS pin and the held
    # malloc thresholds are process memory the child inherits, so both answers
    # stay.  Pinning again would do harm: OpenBLAS's own at-fork handler
    # stopped its worker thread, and ``openblas_set_num_threads`` in the child
    # starts a new one, which spin-waits (4-5 ms stalls every few deep_mlp
    # steps of the child's first run).
    global _lock, _pool
    _lock = threading.Lock()
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_threads_after_fork)

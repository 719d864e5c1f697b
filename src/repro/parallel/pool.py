"""Multiprocessing replica pool over the shared worker matrix.

:class:`ReplicaPool` forks (or spawns) one OS process per *replica group* —
a contiguous block of worker-matrix rows — and shards gradient computation
across them.  Parameters and gradients live in
:class:`~repro.parallel.shm.SharedMatrixStorage`, so

* a child's backward pass writes gradients straight into the shared
  ``(N, D)`` gradient matrix rows the parent aggregates from, and
* every parent-side mutation (fused optimizer steps, PS broadcasts,
  ``set_state``) is immediately visible to the children — no per-step
  parameter shipping in either direction.

Only forward/backward moves off the parent: batches go out over a pipe, the
per-replica losses and gradient norms come back, and the parent proceeds
with aggregation / Δ(gᵢ) tracking / compression against the exact matrices
the single-process engine would hold.  Each child runs either the
:class:`~repro.engine.replica_exec.BatchedReplicaExecutor` on its group's
row-slice sub-matrix or the same per-worker fallback loop the parent uses,
so float64 trajectories are bit-identical to the single-process path.

Determinism does not depend on the start method: children rebuild their
replicas from pickled snapshots, re-adopt the shared rows *without copying*
(``flatten_parameters(..., preserve=False)``), and reconstruct the shared
dropout stream from its seed, so ``fork`` and ``spawn`` produce the same
trajectories.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.engine.worker_matrix import group_bounds
from repro.parallel.shm import SharedMatrixHandle, SharedMatrixStorage

#: Start methods the pool accepts (resolved against the host's support).
START_METHODS = ("fork", "spawn", "forkserver")


class PoolCrashError(RuntimeError):
    """A pool child died (crash / kill) while work was outstanding."""


def resolve_start_method(start_method: Optional[str]) -> str:
    """Validate ``start_method`` or pick the platform default (prefer fork)."""
    available = multiprocessing.get_all_start_methods()
    if start_method is None:
        return "fork" if "fork" in available else available[0]
    if start_method not in START_METHODS:
        raise ValueError(f"unknown start method {start_method!r}; expected {START_METHODS}")
    if start_method not in available:
        raise ValueError(
            f"start method {start_method!r} unavailable on this platform "
            f"(available: {available})"
        )
    return start_method


@dataclass
class _GroupPayload:
    """Everything one child needs to rebuild its replica group (picklable)."""

    storage_handle: SharedMatrixHandle
    models_blob: bytes  # pickled list of this group's Module replicas
    lo: int
    hi: int
    total_workers: int
    use_executor: bool
    dropout_seed: Optional[int]


# --------------------------------------------------------------------------- #
# child process
# --------------------------------------------------------------------------- #
def _compute_row(model, batch) -> Tuple[float, float]:
    """Forward + backward for one replica (the Worker.compute_gradients_flat
    arithmetic, replicated exactly for cross-process parity)."""
    from repro.nn.losses import cross_entropy_with_logits

    inputs, targets = batch
    model.zero_grad()
    logits = model.forward(inputs)
    loss, dlogits = cross_entropy_with_logits(logits, targets)
    model.backward(dlogits)
    grad = model.grad_vector
    return float(loss), float(np.sqrt(grad @ grad))


def _compute_group(models, executor, batches) -> Tuple[List[float], List[float]]:
    """One gradient pass for a whole group; returns (losses, grad norms)."""
    if executor is not None:
        losses = executor.step(batches)
        if losses is not None:
            norms = executor.grad_norms()
            return [float(l) for l in losses], [float(n) for n in norms]
    out_losses, out_norms = [], []
    for model, batch in zip(models, batches):
        loss, norm = _compute_row(model, batch)
        out_losses.append(loss)
        out_norms.append(norm)
    return out_losses, out_norms


def _pool_child_main(conn, payload_bytes: bytes) -> None:
    """Entry point of one pool child (top-level so ``spawn`` can import it)."""
    from repro.engine.dropout_stream import SharedDropoutStream, attach_shared_dropout
    from repro.engine.replica_exec import BatchedReplicaExecutor
    from repro.engine.worker_matrix import WorkerMatrix
    from repro.telemetry.trace import Tracer

    # Children never record into the process-global telemetry state (fork
    # inherits the parent's enabled flags, spawn re-reads REPRO_TRACE_FILE —
    # either way the parent owns the sink).  Child-side timings go through a
    # private tracer and ride the reply tuple back when the parent asks.
    telemetry.configure(tracing=False, metrics=False, trace_file=None)
    child_tracer = Tracer()

    payload: _GroupPayload = pickle.loads(payload_bytes)
    storage = SharedMatrixStorage.attach(payload.storage_handle)
    models = pickle.loads(payload.models_blob)
    lo, hi = payload.lo, payload.hi
    # Re-adopt the shared rows WITHOUT preserving the pickled snapshots: the
    # shared matrix is authoritative (the parent may have stepped it between
    # pickling and the first command).
    for offset, model in enumerate(models):
        model.flatten_parameters(
            param_vector=storage.params[lo + offset],
            grad_vector=storage.grads[lo + offset],
            preserve=False,
        )
    stream = None
    if payload.dropout_seed is not None:
        stream = SharedDropoutStream(payload.dropout_seed, payload.total_workers)
        stream.set_step(0)  # armed like the parent's; every command re-syncs it
        for offset, model in enumerate(models):
            attach_shared_dropout(model, stream, worker_slot=lo + offset)
    sub_matrix = WorkerMatrix(
        hi - lo,
        models[0].flat_spec,
        params=storage.params[lo:hi],
        grads=storage.grads[lo:hi],
    )
    executor = BatchedReplicaExecutor.build(sub_matrix, models[0], row_offset=lo)
    use_executor = payload.use_executor
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent went away
            kind = message[0]
            if kind == "stop":
                conn.send(("ok",))
                break
            if kind == "use_executor":
                use_executor = bool(message[1])
                conn.send(("ok",))
            elif kind == "all":
                tick, batches = message[1], message[2]
                collect = len(message) > 3 and message[3]
                if stream is not None:
                    stream.set_step(tick)
                group_exec = executor if use_executor else None
                if collect:
                    with child_tracer.span("pool.child.step") as step_span:
                        step_span.set("rows", hi - lo)
                        step_span.set("tick", int(tick))
                        losses, norms = _compute_group(models, group_exec, batches)
                    conn.send(("ok", losses, norms, child_tracer.drain()))
                else:
                    losses, norms = _compute_group(models, group_exec, batches)
                    conn.send(("ok", losses, norms))
            elif kind == "one":
                tick, row, batch = message[1], message[2], message[3]
                collect = len(message) > 4 and message[4]
                if stream is not None:
                    stream.set_step(tick)
                if collect:
                    with child_tracer.span("pool.child.step") as step_span:
                        step_span.set("rows", 1)
                        step_span.set("tick", int(tick))
                        loss, norm = _compute_row(models[row - lo], batch)
                    conn.send(("ok", loss, norm, child_tracer.drain()))
                else:
                    loss, norm = _compute_row(models[row - lo], batch)
                    conn.send(("ok", loss, norm))
            else:  # defensive: unknown command
                conn.send(("error", f"unknown pool command {kind!r}"))
    finally:
        conn.close()
        storage.close()


# --------------------------------------------------------------------------- #
# parent-side pool
# --------------------------------------------------------------------------- #
def _terminate_processes(processes, connections) -> None:
    """Finalizer body: must not reference the pool object itself."""
    for conn in connections:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
    for proc in processes:
        if proc.is_alive():
            proc.terminate()
    for proc in processes:
        proc.join(timeout=2.0)


class ReplicaPool:
    """One process per replica group, sharded over the shared worker matrix."""

    def __init__(
        self,
        storage: SharedMatrixStorage,
        models: Sequence,
        num_groups: int,
        start_method: Optional[str] = None,
        use_executor: bool = True,
        dropout_seed: Optional[int] = None,
        step_timeout: float = 300.0,
    ) -> None:
        n = len(models)
        if n != storage.num_workers:
            raise ValueError(f"{n} models for storage of {storage.num_workers} workers")
        self.start_method = resolve_start_method(start_method)
        self.bounds = group_bounds(n, num_groups)
        self.num_workers = n
        self.step_timeout = float(step_timeout)
        self._closed = False
        ctx = multiprocessing.get_context(self.start_method)
        self._processes = []
        self._connections = []
        for lo, hi in self.bounds:
            payload = _GroupPayload(
                storage_handle=storage.handle,
                models_blob=pickle.dumps(list(models[lo:hi])),
                lo=lo,
                hi=hi,
                total_workers=n,
                use_executor=bool(use_executor),
                dropout_seed=dropout_seed,
            )
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_pool_child_main,
                args=(child_conn, pickle.dumps(payload)),
                daemon=True,
                name=f"repro-pool-{lo}-{hi}",
            )
            proc.start()
            child_conn.close()
            self._processes.append(proc)
            self._connections.append(parent_conn)
        # Kill stray children even if the pool is never closed explicitly.
        self._finalizer = weakref.finalize(
            self, _terminate_processes, list(self._processes), list(self._connections)
        )

    # ------------------------------------------------------------------ #
    @property
    def num_groups(self) -> int:
        """Number of child processes (= replica groups) the pool runs."""
        return len(self.bounds)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run; a closed pool refuses commands."""
        return self._closed

    def group_of(self, worker_id: int) -> int:
        """Index of the replica group (child process) owning ``worker_id``."""
        for g, (lo, hi) in enumerate(self.bounds):
            if lo <= worker_id < hi:
                return g
        raise ValueError(f"worker_id {worker_id} out of range")

    # ------------------------------------------------------------------ #
    def _send(self, group: int, message) -> None:
        try:
            self._connections[group].send(message)
        except (BrokenPipeError, OSError):
            self._crash(group)

    def _recv(self, group: int):
        conn = self._connections[group]
        proc = self._processes[group]
        deadline = time.monotonic() + self.step_timeout
        while True:
            try:
                # poll() wakes as soon as data arrives; the 50 ms granularity
                # only bounds how fast a child *death* is noticed.
                if conn.poll(0.05):
                    reply = conn.recv()
                    break
            except (EOFError, OSError):
                self._crash(group)
            if not proc.is_alive():
                self._crash(group)
            if time.monotonic() > deadline:
                self.close()
                raise PoolCrashError(
                    f"pool group {group} did not answer within {self.step_timeout}s"
                )
        if reply[0] != "ok":
            self.close()
            raise PoolCrashError(f"pool group {group} failed: {reply[1:]}")
        return reply

    def _crash(self, group: int) -> None:
        lo, hi = self.bounds[group]
        proc = self._processes[group]
        proc.join(timeout=1.0)  # reap so exitcode is meaningful
        exitcode = proc.exitcode
        self.close()
        raise PoolCrashError(
            f"pool worker process for replica rows [{lo}, {hi}) died "
            f"(exitcode {exitcode}); pool shut down, shared state intact"
        )

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")

    # ------------------------------------------------------------------ #
    def compute_all(self, batches: Sequence, tick: int = 0) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient pass for every replica, sharded across all groups.

        Gradients land in the shared matrix rows; returns per-replica
        ``(losses, grad_norms)`` arrays indexed by worker id.
        """
        self._check_open()
        if len(batches) != self.num_workers:
            raise ValueError(f"{len(batches)} batches for {self.num_workers} replicas")
        collect = telemetry.tracing_enabled()
        with telemetry.span("pool.roundtrip") as roundtrip:
            for g, (lo, hi) in enumerate(self.bounds):
                group_batches = list(batches[lo:hi])
                if collect:
                    self._send(g, ("all", int(tick), group_batches, True))
                else:
                    self._send(g, ("all", int(tick), group_batches))
            losses = np.empty(self.num_workers)
            norms = np.empty(self.num_workers)
            for g, (lo, hi) in enumerate(self.bounds):
                reply = self._recv(g)
                losses[lo:hi] = reply[1]
                norms[lo:hi] = reply[2]
                if len(reply) > 3 and reply[3]:
                    telemetry.get_tracer().adopt(reply[3], parent=roundtrip)
        return losses, norms

    def compute_one(self, worker_id: int, batch, tick: int = 0) -> Tuple[float, float]:
        """Gradient pass for a single replica (SSP's round-robin stepping)."""
        self._check_open()
        group = self.group_of(worker_id)
        collect = telemetry.tracing_enabled()
        with telemetry.span("pool.roundtrip") as roundtrip:
            if collect:
                self._send(group, ("one", int(tick), int(worker_id), batch, True))
            else:
                self._send(group, ("one", int(tick), int(worker_id), batch))
            reply = self._recv(group)
            if len(reply) > 3 and reply[3]:
                telemetry.get_tracer().adopt(reply[3], parent=roundtrip)
        return float(reply[1]), float(reply[2])

    def set_use_executor(self, flag: bool) -> None:
        """Toggle the children's batched executors (benchmark fallback knob)."""
        self._check_open()
        for g in range(self.num_groups):
            self._send(g, ("use_executor", bool(flag)))
        for g in range(self.num_groups):
            self._recv(g)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop every child and release the pipes (idempotent).

        The shared-memory segments are owned by the cluster's storage, not
        the pool; closing the pool never unlinks them.
        """
        if self._closed:
            return
        self._closed = True
        for conn, proc in zip(self._connections, self._processes):
            if proc.is_alive():
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        self._finalizer()  # close pipes, terminate stragglers, join

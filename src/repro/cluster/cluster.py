"""Lockstep simulated cluster: construction and shared bookkeeping.

``SimulatedCluster`` wires together everything a training algorithm needs:

* ``num_workers`` :class:`~repro.cluster.worker.Worker` replicas built from a
  model factory, each with its own RNG stream and data partition,
* one fused optimizer update over all replicas
  (:func:`~repro.engine.fused_optim.build_fused_update`), which owns every
  worker's optimizer state,
* a :class:`~repro.comm.parameter_server.ParameterServer` initialized from a
  broadcast of worker 0's parameters (so every replica starts identical, as
  in BSP),
* an :class:`~repro.comm.backend.InProcessBackend` for collectives,
* a :class:`~repro.cluster.clock.SimulatedClock` charged through the compute
  and communication cost models so algorithms can report simulated wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.cluster.clock import SimulatedClock
from repro.cluster.compute_model import ComputeCostModel, PAPER_WORKLOADS, WorkloadSpec
from repro.cluster.heterogeneity import HomogeneousSpeed, WorkerSpeedModel
from repro.cluster.worker import Worker
from repro.comm.backend import InProcessBackend
from repro.comm.cost_model import CommunicationCostModel
from repro.comm.parameter_server import ParameterServer
from repro.engine import (
    BatchedReplicaExecutor,
    WorkerMatrix,
    build_fused_update,
    resolve_dtype,
    resolve_transport_dtype,
    threads,
)
from repro.data.loader import DataLoader
from repro.data.partition import DefaultPartitioner, Partitioner
from repro.metrics.evaluation import EvalResult, evaluate_model
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer
from repro.utils.rng import spawn_rngs


@dataclass
class ClusterConfig:
    """Configuration of the simulated cluster.

    ``workload`` selects the cost-model spec (defaults to the ResNet101 spec)
    so that simulated times reflect paper-scale model sizes even though the
    replicas themselves are small analogs.

    ``dtype`` selects the engine compute dtype: ``"float64"`` (default, the
    seed's bit-exact regime) or ``"float32"`` (the paper clusters' numerical
    regime; roughly half the memory traffic per step).

    ``transport_dtype`` selects the simulated *wire* format for model
    payloads independently of the compute dtype: ``None`` keeps the
    canonical float32 wire, ``"float16"`` prices half-precision transfers
    (halving every sync round on the simulated clock), ``"float64"`` a
    double-precision wire.  Only byte accounting changes — the replicas
    still train in the compute dtype.
    """

    num_workers: int = 4
    batch_size: int = 32
    seed: int = 0
    task: str = "classification"
    workload: str = "resnet101"
    topology: str = "ps"
    dtype: str = "float64"
    transport_dtype: Optional[str] = None
    eval_batch_size: int = 512
    eval_max_batches: Optional[int] = 8
    top_k: Optional[int] = None
    speed_model: WorkerSpeedModel = field(default_factory=HomogeneousSpeed)

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {self.num_workers}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.task not in ("classification", "language_modeling"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.workload not in PAPER_WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; available: {sorted(PAPER_WORKLOADS)}"
            )
        # Raises on unsupported dtypes (anything outside float32/float64).
        resolve_dtype(self.dtype)
        # Raises on unsupported transport dtypes (None -> float32 wire).
        resolve_transport_dtype(self.transport_dtype)


class SimulatedCluster:
    """N workers + parameter server + cost models, trained in lockstep."""

    def __init__(
        self,
        model_factory: Callable[[np.random.Generator], Module],
        optimizer_factory: Callable[[Module], Optimizer],
        train_dataset,
        test_dataset,
        config: ClusterConfig,
        partitioner: Optional[Partitioner] = None,
        worker_batch_size: Optional[int] = None,
    ) -> None:
        # Unpinned, OpenBLAS's idle worker thread spin-waits on the core a
        # shard thread or a forked run needs (a one-thread run kept both cores
        # busy); on one core there is nothing to take from it.
        if threads.usable_cores() >= 2:
            threads.pin_blas()
        self.config = config
        self.train_dataset = train_dataset
        self.test_dataset = test_dataset
        self.partitioner = partitioner or DefaultPartitioner(seed=config.seed)
        n = config.num_workers
        batch_size = worker_batch_size or config.batch_size

        rngs = spawn_rngs(config.seed, n + 1)
        # Engine compute dtype: every buffer built below (worker matrix rows,
        # optimizer state, the parameter-server state) uses this dtype.
        self.dtype = resolve_dtype(config.dtype)
        # Build worker 0's model first and copy its weights to every other
        # replica, mirroring the initial pullFromPS of Alg. 1 (line 3).
        reference_model = model_factory(rngs[0])
        reference_model.flatten_parameters(dtype=self.dtype)
        initial_state = reference_model.state_dict()

        partition = self.partitioner.partition(len(train_dataset), n)
        self.partition_result = partition

        # All worker replicas live as rows of one (N, D) matrix: parameters
        # and gradients are zero-copy views into it, so aggregation,
        # broadcast and Δ(gᵢ) tracking are single vectorized operations.
        self.matrix = WorkerMatrix(n, reference_model.flat_spec)

        self.workers: List[Worker] = []
        for worker_id in range(n):
            model = model_factory(rngs[worker_id])
            self.matrix.adopt(worker_id, model)
            model.load_param_vector(reference_model.param_vector)
            loader = DataLoader(
                train_dataset,
                indices=partition.worker_indices[worker_id],
                batch_size=batch_size,
                shuffle_each_epoch=self.partitioner.shuffle_each_epoch,
                seed=config.seed * 1000 + worker_id,
            )
            self.workers.append(Worker(worker_id, model, loader))

        self.ps = ParameterServer(
            initial_state,
            num_workers=n,
            dtype=self.dtype,
            transport_dtype=config.transport_dtype,
        )
        # Elasticity state (repro.faults): crashed workers leave the active
        # mask, dropping their rows from the fused engine, the optimizer step
        # and every aggregation; straggler bursts scale per-worker compute
        # speed.  All-True / all-ones is the fast path.
        self.active_mask = np.ones(n, dtype=bool)
        self.fault_speed_scale = np.ones(n, dtype=np.float64)
        # Fused all-replica forward/backward when the executor's table covers
        # the model (None otherwise: compute_gradients_all runs the per-worker
        # loop for the cluster's lifetime).  Both tasks share the
        # cross-entropy arithmetic, so classification and language modeling
        # batch the same way.
        self.replica_exec = BatchedReplicaExecutor.build(
            self.matrix, [w.model for w in self.workers], self.active_mask
        )
        # Every worker's optimizer step, as one update over the worker
        # matrix; the factory's optimizer only names the family and its
        # hyperparameters.
        self.fused_update = build_fused_update(
            optimizer_factory(reference_model), self.matrix, self.active_mask
        )
        self.backend = InProcessBackend(
            world_size=n, transport_dtype=config.transport_dtype
        )
        self.clock = SimulatedClock(num_workers=n)
        self.comm_model = CommunicationCostModel(
            topology=config.topology, transport_dtype=config.transport_dtype
        )
        self.workload_spec: WorkloadSpec = PAPER_WORKLOADS[config.workload]
        self.compute_model = ComputeCostModel(self.workload_spec)
        self.speed_model = config.speed_model
        self._eval_rng = rngs[n]
        self.global_step = 0

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        return self.config.num_workers

    @property
    def batch_size(self) -> int:
        return self.workers[0].loader.batch_size

    @property
    def num_active(self) -> int:
        """Number of workers currently in the active set."""
        return int(self.active_mask.sum())

    @property
    def active_indices(self) -> np.ndarray:
        """Worker ids currently in the active set, ascending."""
        return np.flatnonzero(self.active_mask)

    @property
    def primary_worker(self) -> Worker:
        """The first active worker (worker 0 unless it crashed).

        Algorithms that track a reference replica (BSP's PS mirror, SelSync's
        GA checkpoint) use this instead of ``workers[0]`` so a crashed
        worker 0 never becomes the reference.
        """
        if self.active_mask[0]:
            return self.workers[0]
        return self.workers[int(self.active_indices[0])]

    @property
    def active_params(self) -> np.ndarray:
        """Parameter rows of the active workers.

        The live full matrix when every worker is active (the common case —
        zero-copy), a gathered ``(num_active, D)`` copy under an elastic mask.
        """
        if self.active_mask.all():
            return self.matrix.params
        return self.matrix.params[self.active_mask]

    @property
    def active_grads(self) -> np.ndarray:
        """Gradient rows of the active workers (see :attr:`active_params`)."""
        if self.active_mask.all():
            return self.matrix.grads
        return self.matrix.grads[self.active_mask]

    # ------------------------------------------------------------------ #
    # elasticity (repro.faults)
    # ------------------------------------------------------------------ #
    def deactivate_worker(self, worker_id: int) -> None:
        """Drop a worker from the active set (a crash).

        Its parameter and gradient rows freeze in place: the fused engine,
        optimizer stepping, aggregation and broadcast all skip the row until
        :meth:`reactivate_worker`.
        """
        self._check_worker_id(worker_id)
        if not self.active_mask[worker_id]:
            raise ValueError(f"worker {worker_id} is already inactive")
        if self.num_active == 1:
            raise ValueError("cannot deactivate the last active worker")
        self.active_mask[worker_id] = False

    def reactivate_worker(self, worker_id: int) -> None:
        """Return a crashed worker to the active set (a rejoin)."""
        self._check_worker_id(worker_id)
        if self.active_mask[worker_id]:
            raise ValueError(f"worker {worker_id} is already active")
        self.active_mask[worker_id] = True

    def _check_worker_id(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.num_workers:
            raise ValueError(
                f"worker_id must be in [0, {self.num_workers}), got {worker_id}"
            )

    def next_batches(self) -> Tuple[np.ndarray, np.ndarray]:
        """This step's ``(inputs, targets)`` block, leading axis one row per worker.

        Every worker's loader hands out its next index row; the rows are
        stacked and the dataset is indexed once.  A crashed worker's loader
        does not advance, so its data stream resumes exactly where it
        stopped when it rejoins; its row holds the first live worker's data
        (a placeholder that keeps the block's shape, never aggregated).
        """
        live = self.active_mask.tolist()
        rows = [w.loader.next_indices() if up else None for w, up in zip(self.workers, live)]
        first = rows[live.index(True)]
        index = np.concatenate([first if row is None else row for row in rows])
        return self.train_dataset[index.reshape(len(rows), -1)]

    # ------------------------------------------------------------------ #
    # checkpoint / restore (repro.faults)
    # ------------------------------------------------------------------ #
    def checkpoint(self):
        """Snapshot the full cluster state as contiguous copies.

        Returns a :class:`~repro.faults.checkpoint.ClusterCheckpoint`; see
        :meth:`restore`.
        """
        from repro.faults.checkpoint import snapshot_cluster

        return snapshot_cluster(self)

    def restore(self, ckpt) -> None:
        """Write a checkpoint back in place — bit-identical continuation."""
        from repro.faults.checkpoint import restore_cluster

        restore_cluster(self, ckpt)

    # ------------------------------------------------------------------ #
    # gradient computation
    # ------------------------------------------------------------------ #
    def compute_gradients_all(self, batches: Tuple[np.ndarray, np.ndarray]) -> List[float]:
        """Forward + backward for every active worker; returns their losses.

        ``batches`` is one ``(inputs, targets)`` block with one leading row
        per worker (see :meth:`next_batches`).  The engine's fused
        batched-replica executor runs when available (one set of batched
        matmuls for the whole cluster, gradients written straight into the
        matrix rows), otherwise the per-worker loop over the active rows.
        The executor still runs all N rows — a crashed row computes on its
        placeholder data so the batched shapes stay fixed — but its gradient
        row is zeroed afterwards and its loss dropped, so nothing from a
        crashed row ever reaches an aggregation.
        """
        mask = self.active_mask
        active = np.flatnonzero(mask)
        with telemetry.span("cluster.gradients"):
            if self.replica_exec is None:
                inputs, targets = batches
                return [
                    self.workers[w].compute_gradients_flat((inputs[w], targets[w]))[0]
                    for w in active
                ]
            losses = self.replica_exec.step(batches)
            self.matrix.grads[~mask] = 0.0
            out = [float(losses[worker_id]) for worker_id in active]
            for worker_id, loss in zip(active, out):
                self.workers[worker_id].last_loss = loss
            return out

    def apply_local_updates(
        self, lr_factor: float = 1.0, grads: Optional[np.ndarray] = None
    ) -> None:
        """One optimizer step on every active worker, as one fused matrix update.

        The step runs at the optimizer's lr times ``lr_factor`` (the lr
        schedule's shape at this step).  ``grads=None`` applies each worker's
        own gradients; a flat ``(D,)`` vector applies the same aggregated
        gradient to every replica.  Crashed workers keep their parameters and
        optimizer state.
        """
        with telemetry.span("cluster.update"):
            self.fused_update.apply(lr_factor, grads)

    # ------------------------------------------------------------------ #
    # simulated-time charging
    # ------------------------------------------------------------------ #
    def charge_compute_step(self, batch_size: Optional[int] = None) -> np.ndarray:
        """Charge one parallel compute phase; returns per-worker durations."""
        b = batch_size or self.batch_size
        # The speed model is always consulted (stateful models advance their
        # RNG once per step); fault bursts then compound multiplicatively.
        speeds = self.speed_model.speed_factors(self.num_workers, self.global_step)
        if not np.all(self.fault_speed_scale == 1.0):
            speeds = speeds * self.fault_speed_scale
        durations = self.compute_model.step_seconds_batch(b, speeds)
        if not self.active_mask.all():
            durations = np.where(self.active_mask, durations, 0.0)
        self.clock.advance_all(durations, bucket="compute")
        return durations

    def charge_sync(
        self, payload_bytes: Optional[float] = None, scale_transport: bool = True
    ) -> float:
        """Charge one aggregation round (barrier + transfer).

        ``payload_bytes`` defaults to the full model.  A compressed round
        passes its own payload with ``scale_transport=False``: its bytes
        already are the wire format, so the transport dtype must not scale
        them a second time.
        """
        if payload_bytes is None:
            payload_bytes = self.workload_spec.model_bytes
        seconds = self.comm_model.sync_seconds(
            payload_bytes, self.num_active, scale_transport=scale_transport
        )
        self.clock.barrier_and_add(seconds, bucket="communication")
        if telemetry.metrics_enabled():
            # Modeled aggregate wire volume: every active worker pushes its
            # update and pulls the averaged state, in the wire format.
            scale = self.comm_model.wire_scale if scale_transport else 1.0
            telemetry.count(
                "repro_comm_wire_bytes_total",
                2.0 * payload_bytes * scale * self.num_active,
                kind="sync",
            )
        return seconds

    def charge_push_pulls(self) -> None:
        """Charge every worker its own asynchronous push/pull (SSP), no barrier.

        Each worker's transfer is priced on its own and added to its own clock.
        """
        model_bytes = self.workload_spec.model_bytes
        durations = np.array(
            [self.comm_model.ssp_push_pull_seconds(model_bytes) for _ in self.workers]
        )
        self.clock.advance_all(durations, bucket="communication")
        if telemetry.metrics_enabled():
            telemetry.count(
                "repro_comm_wire_bytes_total",
                2.0 * model_bytes * self.comm_model.wire_scale * self.num_workers,
                kind="sync",
            )

    def charge_flags_allgather(self) -> float:
        """Charge the SelSync synchronization-status all-gather."""
        seconds = self.comm_model.flags_seconds(self.num_active)
        self.clock.barrier_and_add(seconds, bucket="communication")
        if telemetry.metrics_enabled():
            n = self.num_active
            telemetry.count(
                "repro_comm_wire_bytes_total",
                max((n - 1) / 8.0, 1.0) * n,
                kind="flags",
            )
        return seconds

    def charge_p2p(self, num_bytes: float) -> float:
        """Charge and record (op ``"p2p"``) one transfer of SelSync's data injection."""
        seconds = self.comm_model.p2p_seconds(num_bytes)
        self.clock.barrier_and_add(seconds, bucket="communication")
        self.backend.record.record("p2p", float(num_bytes))
        if telemetry.metrics_enabled():
            telemetry.count("repro_comm_wire_bytes_total", float(num_bytes), kind="p2p")
        return seconds

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def evaluate_state(self, state) -> EvalResult:
        """Evaluate a (global) parameter state on the held-out test set.

        ``state`` may be a named dict or an already-flat parameter vector.
        """
        model = self.workers[0].model
        backup = model.param_vector.copy()
        if isinstance(state, np.ndarray):
            model.load_param_vector(state)
        else:
            model.load_state_dict(state)
        try:
            result = evaluate_model(
                model,
                self.test_dataset,
                task=self.config.task,
                batch_size=self.config.eval_batch_size,
                max_batches=self.config.eval_max_batches,
                top_k=self.config.top_k,
            )
        finally:
            model.load_param_vector(backup)
        return result

    # ------------------------------------------------------------------ #
    # misc helpers
    # ------------------------------------------------------------------ #
    def broadcast_state(self, state) -> None:
        """Load a global state into every replica by one matrix row assignment.

        ``state`` may be a named dict or an already-flat parameter vector.
        """
        if not isinstance(state, np.ndarray):
            state = self.matrix.spec.flatten_tree(state)
        if self.active_mask.all():
            self.matrix.broadcast(state)
            return
        # Elastic mask: only active rows receive the global state; crashed
        # rows stay frozen until their rejoin restores them.
        vector = np.asarray(state, dtype=self.matrix.dtype).ravel()
        if vector.size != self.matrix.spec.total_size:
            raise ValueError(
                f"broadcast vector has length {vector.size}, "
                f"expected {self.matrix.spec.total_size}"
            )
        self.matrix.params[self.active_mask] = vector

    def average_worker_states(self) -> Dict[str, np.ndarray]:
        """Named replica average (one fused mean over the worker matrix).

        Under an elastic mask the mean runs over the active rows only.
        """
        if self.active_mask.all():
            return self.matrix.mean_state_dict()
        mean = self.matrix.params[self.active_mask].mean(axis=0)
        return self.matrix.spec.unflatten(mean)

    def replica_divergence(self) -> float:
        """Mean L2 distance of worker replicas from their average (drift diagnostic)."""
        return self.matrix.divergence()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Flush the process's trace sink (``REPRO_TRACE_FILE``), if one is set.

        Idempotent and safe to skip; the harness closes every cluster it
        builds.
        """
        telemetry.flush()

"""Drives a :class:`~repro.faults.schedule.FaultSchedule` through a cluster.

The controller is attached to a trainer (``trainer.attach_fault_controller``)
and called once at the start of every global step, before the step computes.
It applies the step's events in order:

* **crash** — snapshot the cluster (the rejoin's restore point), then drop
  the worker from the active set; the engine's fused forward/backward and
  every aggregation mask skip the row from this step on.
* **rejoin** — reactivate the worker, restore its optimizer-state rows, data
  stream and last loss from the latest checkpoint, fast-forward its simulated
  clock to the cluster barrier, charge the full-model re-sync transfer
  through the :class:`~repro.comm.cost_model.CommunicationCostModel`, and
  pull the current global state from the parameter server onto its row.
* **straggler** — scale the worker's compute speed down for the burst's
  duration (compounding with the cluster's configured speed model).

Every applied event is counted in telemetry (``repro_fault_events_total``)
and appended to :attr:`FaultController.event_log` for scenario metadata.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro import telemetry
from repro.faults.checkpoint import (
    ClusterCheckpoint,
    restore_worker,
    snapshot_cluster,
)
from repro.faults.schedule import FaultSchedule


class FaultController:
    """Applies scheduled crash / rejoin / straggler events to a cluster."""

    def __init__(
        self,
        cluster: Any,
        schedule: FaultSchedule,
        checkpoint_every: Optional[int] = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        schedule.validate(cluster.num_workers)
        self.cluster = cluster
        self.schedule = schedule
        self.checkpoint_every = checkpoint_every
        # A step-0 snapshot guarantees every rejoin has a restore point even
        # before the first crash or periodic checkpoint fires.
        self.latest_checkpoint: ClusterCheckpoint = snapshot_cluster(cluster)
        self.event_log: List[Dict[str, object]] = []
        self.crash_count = 0
        self.rejoin_count = 0
        self.straggler_count = 0
        self._burst_ends: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def before_step(self, step: int) -> None:
        """Apply everything scheduled for ``step`` (called before it computes)."""
        cluster = self.cluster
        for worker_id, end in list(self._burst_ends.items()):
            if step >= end:
                cluster.fault_speed_scale[worker_id] = 1.0
                del self._burst_ends[worker_id]
        if (
            self.checkpoint_every is not None
            and step > 0
            and step % self.checkpoint_every == 0
        ):
            self.latest_checkpoint = snapshot_cluster(cluster)
        for event in self.schedule.events_at(step):
            if event.kind == "crash":
                self._apply_crash(event)
            elif event.kind == "rejoin":
                self._apply_rejoin(event)
            else:
                self._apply_straggler(event)
            self._record(event)

    # ------------------------------------------------------------------ #
    def _apply_crash(self, event) -> None:
        with telemetry.span("faults.crash"):
            # Snapshot before the row is dropped so the rejoin restores the
            # worker's optimizer and data stream as of the crash instant.
            self.latest_checkpoint = snapshot_cluster(self.cluster)
            self.cluster.deactivate_worker(event.worker)
        self.crash_count += 1

    def _apply_rejoin(self, event) -> None:
        cluster = self.cluster
        with telemetry.span("faults.rejoin"):
            cluster.reactivate_worker(event.worker)
            restore_worker(cluster, self.latest_checkpoint, event.worker)
            # The rejoined worker fast-forwards to the cluster barrier, then
            # pays a full-model pull to re-sync with the current global state.
            cluster.clock.sync_worker(event.worker)
            model_bytes = cluster.workload_spec.model_bytes
            resync_s = cluster.comm_model.p2p_seconds(
                model_bytes * cluster.comm_model.wire_scale
            )
            cluster.clock.advance_worker(
                event.worker, resync_s, bucket="communication"
            )
            if telemetry.metrics_enabled():
                telemetry.count(
                    "repro_comm_wire_bytes_total",
                    value=model_bytes * cluster.comm_model.wire_scale,
                    kind="resync",
                )
            cluster.workers[event.worker].set_state(
                cluster.ps.pull_vector(event.worker)
            )
        self.rejoin_count += 1

    def _apply_straggler(self, event) -> None:
        self.cluster.fault_speed_scale[event.worker] = 1.0 / event.slowdown
        self._burst_ends[event.worker] = event.step + event.duration
        self.straggler_count += 1

    def _record(self, event) -> None:
        if telemetry.metrics_enabled():
            telemetry.count("repro_fault_events_total", kind=event.kind)
        self.event_log.append(event.to_dict())

"""Accounting invariants on every trainer × workload preset × compute dtype.

Each combination runs a few steps on two workers once; the checks share the
run.  What is counted where:

* the **cost model** prices every sync round (``sync_seconds``) and every SSP
  push/pull (``ssp_push_pull_seconds``).  Its convention, shared with the
  telemetry counter: a sync round moves ``2 × model bytes × wire scale`` per
  participating worker (push + pull), an SSP step ``2 × model bytes × wire
  scale`` per worker;
* the **telemetry** counter ``repro_comm_wire_bytes_total{kind="sync"}``,
  incremented by ``SimulatedCluster.charge_sync`` and ``charge_push_pulls``;
* the **backend and parameter-server records**, which the ledger's
  ``comm.bytes_total`` and ``TrainingResult.communication_bytes`` sum.  They
  count the analog model's bytes, the cost model the paper model's, so the
  two are compared in model payloads (bytes ÷ one model's bytes).

All three agree on every case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import pytest

from repro import telemetry
from repro.compression import TopKCompressor
from repro.harness.experiment import WORKLOAD_PRESETS, build_cluster, build_workload, make_trainer

STEPS = 6
WORKERS = 2

#: Every ``make_trainer`` algorithm, with knobs that make a six-step run sync.
ALGORITHMS = {
    "bsp": {},
    "selsync": {"delta": 0.05},
    "fedavg": {"sync_factor": 1e-4},
    "local_sgd": {"sync_period": 2},
    "ssp": {"staleness": 2},
    "compressed_bsp": {},
}
PRESETS = sorted(WORKLOAD_PRESETS)
DTYPES = ["float64", "float32"]


@dataclass(frozen=True)
class Run:
    """What one run leaves behind; the cluster itself is not kept."""

    final_loss: float
    lssr: float
    iterations: int
    local_steps: int
    sync_steps: int
    #: One ``(model payloads, sync round?)`` entry per call the cost model priced.
    priced: Tuple[Tuple[float, bool], ...]
    wire_sync_payloads: float
    record_payloads: float
    dtypes: Tuple[np.dtype, ...]
    finite: bool

    @property
    def priced_payloads(self) -> float:
        return sum(payloads for payloads, _ in self.priced)

    @property
    def sync_rounds(self) -> int:
        return sum(1 for _, is_sync in self.priced if is_sync)


CASES = [(a, p, d) for a in sorted(ALGORITHMS) for p in PRESETS for d in DTYPES]


@functools.lru_cache(maxsize=None)
def _run(algorithm: str, workload: str, dtype: str) -> Run:
    telemetry.reset()
    telemetry.configure(metrics=True)
    preset = build_workload(workload)
    cluster = build_cluster(preset, num_workers=WORKERS, seed=0, dtype=dtype)
    try:
        comm = cluster.comm_model
        model_bytes = cluster.workload_spec.model_bytes
        priced: List[Tuple[float, bool]] = []
        sync_seconds, push_pull_seconds = comm.sync_seconds, comm.ssp_push_pull_seconds

        def priced_sync(payload_bytes, num_workers, scale_transport=True):
            scale = comm.wire_scale if scale_transport else 1.0
            priced.append((2.0 * payload_bytes * scale * num_workers / model_bytes, True))
            return sync_seconds(payload_bytes, num_workers, scale_transport=scale_transport)

        def priced_push_pull(payload_bytes):
            priced.append((2.0 * payload_bytes * comm.wire_scale / model_bytes, False))
            return push_pull_seconds(payload_bytes)

        comm.sync_seconds, comm.ssp_push_pull_seconds = priced_sync, priced_push_pull
        kwargs = dict(ALGORITHMS[algorithm])
        if algorithm == "compressed_bsp":
            kwargs["compressor"] = TopKCompressor(ratio=0.1)
        trainer = make_trainer(
            algorithm, cluster, preset, total_iterations=STEPS, eval_every=10_000, **kwargs
        )
        result = trainer.run(STEPS)
        wire = telemetry.get_metrics().counter("repro_comm_wire_bytes_total")
        record = cluster.backend.record
        records = (
            record.total_bytes
            - record.bytes_by_op.get("allgather_bits", 0.0)   # status bits, not payloads
            + cluster.ps.total_pushed_bytes
            + cluster.ps.total_pulled_bytes
        )
        blocks = (cluster.matrix.params, cluster.matrix.grads, cluster.ps.state_vector)
        return Run(
            final_loss=result.final_loss,
            lssr=result.lssr,
            iterations=result.iterations,
            local_steps=trainer.lssr_tracker.local_steps,
            sync_steps=trainer.lssr_tracker.sync_steps,
            priced=tuple(priced),
            wire_sync_payloads=wire.value(kind="sync") / model_bytes,
            record_payloads=records / cluster.ps.state_bytes(),
            dtypes=tuple(block.dtype for block in blocks),
            finite=all(bool(np.isfinite(block).all()) for block in blocks),
        )
    finally:
        cluster.close()
        telemetry.reset()


@pytest.mark.parametrize("algorithm,workload,dtype", CASES)
def test_loss_is_finite_and_lssr_is_local_over_total(algorithm, workload, dtype):
    run = _run(algorithm, workload, dtype)
    assert math.isfinite(run.final_loss)
    if algorithm == "ssp":
        # Asynchronous: no sync round, no local step, LSSR reported as 0.
        assert run.sync_rounds == 0 and run.local_steps + run.sync_steps == 0
        assert run.lssr == 0.0
        return
    # The sync count comes from the rounds the cost model priced, not the tracker.
    assert run.sync_steps == run.sync_rounds > 0
    assert run.local_steps + run.sync_steps == STEPS == run.iterations
    assert run.lssr == run.local_steps / STEPS


@pytest.mark.parametrize("algorithm,workload,dtype", CASES)
def test_state_stays_finite_in_the_compute_dtype(algorithm, workload, dtype):
    run = _run(algorithm, workload, dtype)
    assert run.dtypes == (np.dtype(dtype),) * 3
    assert run.finite


@pytest.mark.parametrize("algorithm,workload,dtype", CASES)
def test_telemetry_wire_bytes_equal_what_the_cost_model_priced(algorithm, workload, dtype):
    run = _run(algorithm, workload, dtype)
    assert run.priced_payloads > 0
    assert run.wire_sync_payloads == pytest.approx(run.priced_payloads, rel=1e-12)


@pytest.mark.parametrize("algorithm,workload,dtype", CASES)
def test_backend_records_equal_what_the_cost_model_priced(algorithm, workload, dtype):
    run = _run(algorithm, workload, dtype)
    assert run.priced_payloads > 0
    assert run.record_payloads == pytest.approx(run.priced_payloads, rel=1e-12)

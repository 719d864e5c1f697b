"""The trainer slice of the golden corpus: lockstep trainers pinned step by step.

Each case runs one lockstep trainer config on one workload preset with
``N = 3`` workers for 12 global steps and keeps what the run leaves behind:

* the sha256 of the final ``(N, D)`` worker matrix and of the parameter
  server's state (plus their L1 / L2 norms, the cross-build stand-in);
* the per-step loss and synced flag;
* the evaluation history;
* the counters: sync / local steps, backend bytes by op, PS pushed / pulled
  bytes and simulated time;
* the NumPy + BLAS build that produced them.

Three kinds of case:

* ``plain`` — every config on deep_mlp, resnet101, vgg11, transformer and
  alexnet (Adam) at float64, and on deep_mlp at float32;
* ``fault`` — one fixed crash / rejoin schedule on deep_mlp and alexnet (Adam)
  for the trainers that take faults;
* ``restore`` — checkpoint at step 5, train on out of band, restore, replay
  (deep_mlp and alexnet): the replay must equal the plain pin of the same
  config.

``trainers.json`` holds the pins and ``python -m tests.golden.generate``
writes it.  On the build that wrote a pin the case must match it exactly.  On
another build floats compare at rtol 1e-10 (float64) or 1e-5 (float32);
decisions and counters must still match exactly.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.compression import TopKCompressor
from repro.data.datasets import build_dataset
from repro.data.injection import adjusted_batch_size
from repro.faults import FaultController, FaultSchedule, crash, rejoin
from repro.harness.experiment import build_cluster, build_workload, make_trainer

PINS = Path(__file__).with_name("trainers.json")

WORKERS = 3
STEPS = 12
EVAL_EVERY = 6
BATCH_SIZE = 8
CHECKPOINT_AT = 5
#: Steps trained out of band between the checkpoint and the restore.
DETOUR = 4
INJECTION = {"injection_alpha": 0.5, "injection_beta": 0.5}

#: Config name -> (algorithm, params).  SelSync's δ comes from :data:`DELTAS`,
#: FedAvg's E from the cluster (one round every :data:`FEDAVG_INTERVAL` steps).
CONFIGS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "bsp": ("bsp", {}),
    "selsync_pa": ("selsync", {"aggregation": "param"}),
    "selsync_ga": ("selsync", {"aggregation": "grad"}),
    "selsync_inject": ("selsync", dict(INJECTION)),
    "local_sgd": ("local_sgd", {"sync_period": 3}),
    "fedavg_c1": ("fedavg", {"participation": 1.0}),
    "fedavg_c05": ("fedavg", {"participation": 0.5}),
    "compressed_topk": ("compressed_bsp", {}),
    "ssp": ("ssp", {"staleness": 3}),
}
#: SelSync's threshold per workload: a mix of sync and local steps, clear of
#: every observed Δ(g) (the generator checks the margin).
DELTAS = {
    "deep_mlp": 0.0248, "resnet101": 0.05, "vgg11": 0.023, "transformer": 0.027,
    "alexnet": 0.009,
}
FEDAVG_INTERVAL = 4
WORKLOADS = ("deep_mlp", "resnet101", "vgg11", "transformer", "alexnet")
#: Workloads of the fault and restore cases: one SGD and one Adam preset.
FAULT_WORKLOADS = ("deep_mlp", "alexnet")
FAULT_CONFIGS = (
    "bsp", "selsync_pa", "selsync_ga", "local_sgd", "selsync_inject", "fedavg_c05",
    "compressed_topk",
)
#: Worker 0 goes down too, so the primary replica moves while it is out.
FAULTS = FaultSchedule([crash(1, 3), crash(0, 5), rejoin(1, 8), rejoin(0, 10)])
#: Relative tolerance of float fields on a build other than the pinning one.
RTOL = {"float64": 1e-10, "float32": 1e-5}


@dataclass(frozen=True)
class Case:
    config: str
    workload: str
    dtype: str
    mode: str  # "plain", "fault" or "restore"

    @property
    def key(self) -> str:
        return f"{self.config}/{self.workload}/{self.dtype}/{self.mode}"

    @property
    def pin_key(self) -> str:
        """The pin this case is held to: a restore replays its plain run."""
        mode = "plain" if self.mode == "restore" else self.mode
        return f"{self.config}/{self.workload}/{self.dtype}/{mode}"


CASES: List[Case] = (
    [Case(c, w, "float64", "plain") for c in CONFIGS for w in WORKLOADS]
    + [Case(c, "deep_mlp", "float32", "plain") for c in CONFIGS]
    + [Case(c, w, "float64", "fault") for c in FAULT_CONFIGS for w in FAULT_WORKLOADS]
    + [Case(c, w, "float64", "restore") for c in CONFIGS for w in FAULT_WORKLOADS]
)
PINNED_CASES = [case for case in CASES if case.mode != "restore"]


# --------------------------------------------------------------------------- #
# the build
# --------------------------------------------------------------------------- #
def _openblas_core() -> str:
    """The kernel family OpenBLAS picked at run time (DYNAMIC_ARCH builds)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split(None, 5)[5].strip() for line in handle
                            if "openblas" in line})
    except OSError:
        return ""
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_", "_64_"):
                getter = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_char_p
                    return getter().decode()
    return ""


@functools.lru_cache(maxsize=None)
def build_id() -> str:
    """NumPy version, BLAS library and version, the BLAS kernels and the machine."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return " / ".join(
        (f"numpy {np.__version__}", f"{blas.get('name')} {blas.get('version')}",
         _openblas_core(), platform.machine())
    )


# --------------------------------------------------------------------------- #
# running a case
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _bundle(workload: str):
    preset = build_workload(workload)
    return build_dataset(preset.dataset_name, seed=0, **preset.dataset_kwargs)


def build_trainer(case: Case, delta: Optional[float] = None):
    """The case's trainer on a fresh cluster (fault controller attached)."""
    algorithm, params = CONFIGS[case.config]
    params = dict(params)
    preset = build_workload(case.workload)
    batch_size = BATCH_SIZE
    if case.config == "selsync_inject":
        batch_size = adjusted_batch_size(
            BATCH_SIZE, INJECTION["injection_alpha"], INJECTION["injection_beta"], WORKERS
        )
    cluster = build_cluster(
        preset, num_workers=WORKERS, seed=0, bundle=_bundle(case.workload),
        batch_size=batch_size, dtype=case.dtype, eval_max_batches=1,
    )
    if algorithm == "selsync":
        params["delta"] = DELTAS[case.workload] if delta is None else delta
    elif algorithm == "fedavg":
        params["sync_factor"] = FEDAVG_INTERVAL / cluster.workers[0].loader.steps_per_epoch
    elif algorithm == "compressed_bsp":
        params["compressor"] = TopKCompressor(ratio=0.1)
    trainer = make_trainer(
        algorithm, cluster, preset, total_iterations=STEPS, eval_every=EVAL_EVERY, **params
    )
    if case.mode == "fault":
        trainer.attach_fault_controller(FaultController(cluster, FAULTS))
    return trainer


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _norms(array: np.ndarray) -> List[float]:
    # NumPy's pairwise sums, not a BLAS dot: a dot's reduction order follows
    # the BLAS thread count, which the engine may pin mid-process.
    flat = np.asarray(array, dtype=np.float64).ravel()
    return [float(np.abs(flat).sum()), float(np.sqrt(np.sum(flat * flat)))]


def run_case(case: Case, delta: Optional[float] = None) -> Dict[str, Any]:
    """Run one case and return its record (the shape of a pin)."""
    trainer = build_trainer(case, delta)
    cluster = trainer.cluster
    steps: List[Tuple[float, bool]] = []
    train_step = trainer.train_step

    def recorded_step():
        before = trainer.lssr_tracker.sync_steps
        info = train_step()
        steps.append((float(info["loss"]), trainer.lssr_tracker.sync_steps > before))
        return info

    trainer.train_step = recorded_step
    stepper = trainer.run_stepwise(STEPS)
    try:
        if case.mode == "restore":
            for _ in range(CHECKPOINT_AT):
                next(stepper)
            ckpt = trainer.checkpoint()
            for _ in range(DETOUR):  # unrecorded steps the restore must undo
                train_step()
                trainer.global_step += 1
                cluster.global_step = trainer.global_step
            trainer.restore(ckpt)
        while True:
            next(stepper)
    except StopIteration:
        pass
    finally:
        cluster.close()

    record = cluster.backend.record
    return {
        "params_sha256": _sha256(cluster.matrix.params),
        "ps_sha256": _sha256(cluster.ps.state_vector),
        "params_norms": _norms(cluster.matrix.params),
        "ps_norms": _norms(cluster.ps.state_vector),
        "loss": [loss for loss, _ in steps],
        "synced": [synced for _, synced in steps],
        "eval": [[p.step, p.sim_time, p.metric, p.loss, p.epoch] for p in trainer.history],
        "counters": {
            "sync_steps": trainer.lssr_tracker.sync_steps,
            "local_steps": trainer.lssr_tracker.local_steps,
            "backend_bytes_by_op": dict(sorted(record.bytes_by_op.items())),
            "ps_pushed_bytes": cluster.ps.total_pushed_bytes,
            "ps_pulled_bytes": cluster.ps.total_pulled_bytes,
            "sim_time": cluster.clock.elapsed,
        },
        "build": build_id(),
    }


# --------------------------------------------------------------------------- #
# pins
# --------------------------------------------------------------------------- #
def load_pins() -> Dict[str, Dict[str, Any]]:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle)["cases"]


#: Fields that hold floats computed by BLAS-dependent arithmetic.
FLOAT_FIELDS = ("params_norms", "ps_norms", "loss")
#: Fields that must match exactly on every build (decisions and counters).
EXACT_FIELDS = ("synced", "counters")


def mismatches(got: Dict[str, Any], pin: Dict[str, Any], dtype: str) -> List[str]:
    """The fields where ``got`` departs from ``pin``; empty when it holds.

    On the pin's own build everything is compared exactly.  On another build
    the hashes are skipped, float fields compare at :data:`RTOL` and the
    evaluation steps, times and epochs stay exact.
    """
    if got["build"] == pin["build"]:
        return [name for name in pin if name != "build" and got[name] != pin[name]]
    rtol = RTOL[dtype]
    bad = [name for name in EXACT_FIELDS if got[name] != pin[name]]
    for name in FLOAT_FIELDS:
        if len(got[name]) != len(pin[name]) or not np.allclose(
            got[name], pin[name], rtol=rtol, atol=0.0
        ):
            bad.append(name)
    got_eval, pin_eval = np.asarray(got["eval"]), np.asarray(pin["eval"])
    if got_eval.shape != pin_eval.shape or not (
        np.array_equal(got_eval[:, [0, 1, 4]], pin_eval[:, [0, 1, 4]])
        and np.allclose(got_eval[:, 2:4], pin_eval[:, 2:4], rtol=rtol, atol=0.0)
    ):
        bad.append("eval")
    return bad

"""Shared per-step dropout RNG stream for batched execution.

Per-layer ``Dropout`` modules normally draw masks from private per-worker
generators, which makes their trajectories impossible to reproduce from the
batched :class:`~repro.engine.replica_exec.BatchedReplicaExecutor` (one
``(N, ...)`` mask block per layer).  :class:`SharedDropoutStream` removes the
private state: every replica-row mask is a pure function of ``(stream seed,
step tick, layer id, worker row)``, so the batched executor stacks the rows
it covers (all of them, or one row shard's ``[lo, hi)`` range) while
per-worker layers draw exactly their own row — bit-identical paths, and a
per-worker consumer (the per-worker gradient loop) never pays for the whole
cluster's masks.

The cluster advances the stream once per gradient computation
(``SimulatedCluster._next_dropout_tick``); draws are cached per step.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np


class SharedDropoutStream:
    """Deterministic per-(step, layer) dropout mask blocks for all replicas."""

    def __init__(self, seed: int, num_workers: int) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        # SeedSequence entropy must be non-negative.
        self.seed = int(seed) % (2**63)
        self.num_workers = int(num_workers)
        self._step: int = -1
        self._blocks: Dict[tuple, np.ndarray] = {}

    def set_step(self, step: int) -> None:
        """Enter step ``step``; a new step invalidates every cached block."""
        step = int(step)
        if step != self._step:
            self._step = step
            self._blocks.clear()

    @property
    def step(self) -> int:
        """The current step tick (``-1`` until :meth:`set_step` is called)."""
        return self._step

    def worker_mask(
        self, layer_id: int, local_shape: Tuple[int, ...], p: float, worker_slot: int
    ) -> np.ndarray:
        """Inverted-dropout mask of ``local_shape`` for one replica.

        Masks are derived **per row** — a pure function of ``(seed, step,
        layer_id, worker_slot)`` — so a per-worker consumer (e.g. the
        per-worker gradient loop) draws exactly one replica's mask, never the
        whole cluster block, while :meth:`mask_block` stacks the identical
        rows for the batched executor.  Draws are cached until the next
        :meth:`set_step`.
        """
        if self._step < 0:
            raise RuntimeError(
                "SharedDropoutStream.set_step() must be called before drawing masks"
            )
        key = (int(layer_id), tuple(int(d) for d in local_shape), float(p), int(worker_slot))
        mask = self._blocks.get(key)
        if mask is None:
            keep = 1.0 - key[2]
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, self._step, key[0], key[3]])
            )
            mask = (rng.random(key[1]) < keep) / keep
            self._blocks[key] = mask
        return mask

    def mask_block(
        self,
        layer_id: int,
        local_shape: Tuple[int, ...],
        p: float,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> np.ndarray:
        """Stacked per-row masks for replica rows ``[lo, hi)``.

        Row ``i`` of the result equals ``worker_mask(..., worker_slot=lo+i)``
        exactly, which is what keeps the batched executor (full block or one
        row shard) bit-identical to the per-worker path.
        Defaults to all ``num_workers`` rows; cached until the next
        :meth:`set_step`.
        """
        hi = self.num_workers if hi is None else int(hi)
        lo = int(lo)
        key = ("block", int(layer_id), tuple(int(d) for d in local_shape), float(p), lo, hi)
        block = self._blocks.get(key)
        if block is None:
            block = np.stack(
                [self.worker_mask(layer_id, local_shape, p, row) for row in range(lo, hi)]
            )
            self._blocks[key] = block
        return block


def attach_shared_dropout(module, stream: SharedDropoutStream, worker_slot: int) -> int:
    """Route every ``Dropout`` in ``module`` through ``stream``.

    Layers are numbered in ``named_modules()`` traversal order, which is
    identical for every replica of one architecture, so every replica draws
    its rows of the same per-layer blocks.  Returns the number of attached
    layers.
    """
    from repro.nn.layers import Dropout

    if not 0 <= worker_slot < stream.num_workers:
        raise ValueError(
            f"worker_slot {worker_slot} out of range for {stream.num_workers} workers"
        )
    layer_id = 0
    for _, sub in module.named_modules():
        if isinstance(sub, Dropout):
            sub.use_shared_stream(stream, layer_id=layer_id, worker_slot=worker_slot)
            layer_id += 1
    return layer_id


def module_has_active_dropout(module) -> bool:
    """True if any ``Dropout`` submodule has ``p > 0``."""
    from repro.nn.layers import Dropout

    return any(isinstance(sub, Dropout) and sub.p > 0.0 for _, sub in module.named_modules())

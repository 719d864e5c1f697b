"""Fused whole-cluster optimizer updates.

When every worker runs the same optimizer family with identical
hyperparameters (the lockstep simulator's normal configuration), the N
per-worker flat updates collapse further into a handful of ``(N, D)``
matrix operations: the velocity buffers of all workers are rows of one
matrix, exactly like the parameter and gradient buffers.

The SGD step is cache-blocked.  Its five or six elementwise passes (decay
product, decayed gradient, velocity scale and add, ``lr`` product, parameter
subtraction) used to stream whole ``(N, D)`` operands — 7.7 MB apiece at
``resnet101``'s N=8, D=120,106, so every pass came from L3.  Instead the step
walks the worker matrix in blocks of at most :data:`SEGMENT` elements and runs
the whole pass sequence on one block before the next, through one
segment-sized scratch vector: the same ufuncs on the same operands in the
same order, so every element is bit-identical to the per-worker
``SGD.step``, and a block of params, velocity and scratch is still in L2 when
the next pass reads it.  Own gradients walk the flat ``N·D`` buffers (a
per-row walk was slower at small D); a shared ``(D,)`` gradient walks each
row's column segments, or groups whole rows when D is shorter than a segment.
Without decay or momentum a shared gradient's ``lr * grad`` does not depend
on the row, so it is computed once per column segment for all rows.

:data:`SEGMENT` was measured on a 2-core x86-64 host (2 MiB L2 per core,
NumPy 2.4, float64) by sweeping 8,192 to 131,072 elements over the perf
ledger's update shapes: 32,768 was the fastest or within noise of it at every
shape.  Smaller segments pay more per-call overhead; from 131,072 elements
(1 MiB per operand) the passes fall out of L2 again.  Interleaved against the
whole-matrix step, the update at (8, 120106) with momentum and decay took
0.55–0.66× the time (3.2–4.2 ms before, 1.8–2.4 ms after, as the host's load
varied).  At (8, 9130), where the whole matrix nearly fits in L2, the
own-gradient step with momentum stayed level (157.5 → 156.3 µs median inside
``deep_mlp`` N=8 training) — but only once the block views were built at
construction instead of sliced on every step.

The Adam updater keeps the plain whole-matrix expressions: no ledger
workload runs it, so a rewrite there could not be measured.

Per-worker optimizers stay fully functional — their state is *re-bound*
onto the fused rows, so mixing fused steps (the trainers' hot path) with
individual ``optimizer.step()`` calls (SSP's sequential path, tests) keeps
one consistent state.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.worker_matrix import WorkerMatrix

#: Elements per segment of the cache-blocked SGD step (see the module docstring).
SEGMENT = 32768


class FusedSGDUpdate:
    """All workers' SGD steps, walked over the worker matrix segment by segment."""

    def __init__(self, workers: Sequence[object], matrix: WorkerMatrix) -> None:
        self._workers = list(workers)
        self._optimizers = [w.optimizer for w in workers]
        self._matrix = matrix
        ref = self._optimizers[0]
        self.momentum = ref.momentum
        self.weight_decay = ref.weight_decay
        self.nesterov = ref.nesterov
        if self.momentum:
            self.velocity = np.zeros_like(matrix.params)
            for row, opt in zip(self.velocity, self._optimizers):
                opt.rebind_velocity(row)
        else:
            self.velocity = None
        self._scratch = np.empty(min(SEGMENT, matrix.params.size), dtype=matrix.dtype)
        # The blocks' views are built once: slicing them on every step cost
        # as much as blocking saved at the small ledger shapes.  Own
        # gradients walk the contiguous N·D buffers as one long row.
        params, velocity = matrix.params, self.velocity
        self._own_blocks = self._blocks(
            params.reshape(1, -1),
            matrix.grads.reshape(1, -1),
            None if velocity is None else velocity.reshape(1, -1),
        )
        self._shared_blocks = self._blocks(params, None, velocity)

    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, workers: Sequence[object], matrix: WorkerMatrix
    ) -> Optional["FusedSGDUpdate"]:
        """Build a fused updater, or None when workers aren't uniform SGD."""
        from repro.optim.sgd import SGD

        optimizers = [getattr(w, "optimizer", None) for w in workers]
        if not optimizers or any(type(o) is not SGD for o in optimizers):
            return None
        ref = optimizers[0]
        for opt in optimizers[1:]:
            if (
                opt.momentum != ref.momentum
                or opt.weight_decay != ref.weight_decay
                or opt.nesterov != ref.nesterov
            ):
                return None
        if any(o._trainable_mask is not None for o in optimizers):
            return None
        return cls(workers, matrix)

    # ------------------------------------------------------------------ #
    def apply(
        self,
        lr: Optional[float] = None,
        grads: Optional[np.ndarray] = None,
    ) -> bool:
        """One optimizer step for every worker.

        ``grads=None`` uses each worker's own gradient row; a flat ``(D,)``
        vector applies the same (aggregated) gradient to every replica.
        Returns False when the fused step cannot run (diverged per-worker
        learning rates) and the caller must fall back to the loop.
        """
        optimizers = self._optimizers
        if lr is not None:
            for opt in optimizers:
                opt.set_lr(lr)
        lr_value = optimizers[0].lr
        if any(opt.lr != lr_value for opt in optimizers[1:]):
            return False

        if grads is None:
            for params, grad, velocity, scratch in self._own_blocks:
                self._block_step(lr_value, params, grad, velocity, scratch)
        else:
            shared = np.asarray(grads, dtype=self._matrix.dtype).reshape(-1)
            if shared.size != self._matrix.spec.total_size:
                raise ValueError(
                    f"flat gradient has length {shared.size}, "
                    f"expected {self._matrix.spec.total_size}"
                )
            for params, cols, velocity, scratch in self._shared_blocks:
                self._block_step(lr_value, params, shared[cols], velocity, scratch)

        for opt in optimizers:
            opt._step_count += 1
        for worker in self._workers:
            worker.steps_taken += 1
        return True

    def _blocks(
        self,
        params: np.ndarray,
        grads: Optional[np.ndarray],
        velocity: Optional[np.ndarray],
    ) -> List[Tuple[np.ndarray, Any, Optional[np.ndarray], np.ndarray]]:
        """``(params, grad, velocity, scratch)`` views of each block of ``(R, L)`` operands.

        Rows longer than a segment are cut into column segments; shorter rows
        are grouped whole, as many as fit in one segment.  Without ``grads``
        (a shared gradient, known only at step time) a block's ``grad`` entry
        is its column slice; without decay or momentum too, ``lr * grad`` is
        the same for every row, so a block is one column segment of all rows
        and its scratch holds that one row of step.
        """
        num_rows, length = params.shape
        segment = self._scratch.size
        row_independent = grads is None and not (self.weight_decay or self.momentum)
        if row_independent:
            index = [(slice(None), slice(lo, lo + segment)) for lo in range(0, length, segment)]
        elif length < segment:
            group = segment // length
            index = [(slice(lo, lo + group), slice(None)) for lo in range(0, num_rows, group)]
        else:
            index = [
                (row, slice(lo, lo + segment))
                for row in range(num_rows)
                for lo in range(0, length, segment)
            ]
        blocks = []
        for rows, cols in index:
            block = params[rows, cols]
            step = block[0] if row_independent else block
            blocks.append(
                (
                    block,
                    cols if grads is None else grads[rows, cols],
                    None if velocity is None else velocity[rows, cols],
                    self._scratch[: step.size].reshape(step.shape),
                )
            )
        return blocks

    def _block_step(
        self,
        lr: float,
        params: np.ndarray,
        grad: np.ndarray,
        velocity: Optional[np.ndarray],
        scratch: np.ndarray,
    ) -> None:
        """``SGD._update_flat`` and the subtraction on one block, via ``scratch``.

        ``grad`` is the block's own gradient or the matching columns of a
        shared one, broadcast over the block's rows (and so is ``scratch``
        when neither decay nor momentum makes the step row-dependent).
        """
        if self.weight_decay:
            np.multiply(self.weight_decay, params, out=scratch)
            grad = np.add(grad, scratch, out=scratch)
        if velocity is not None:
            velocity *= self.momentum
            velocity += grad
            if self.nesterov:
                # The one temporary left (block-sized): grad may be the scratch.
                step_dir = self.momentum * velocity
                np.add(grad, step_dir, out=step_dir)
            else:
                step_dir = velocity
        else:
            step_dir = grad
        params -= np.multiply(lr, step_dir, out=scratch)


class FusedAdamUpdate:
    """All workers' Adam steps as a few fused ``(N, D)`` matrix operations.

    The first/second moment buffers of every worker are rows of two ``(N, D)``
    matrices (the exact analog of :class:`FusedSGDUpdate`'s velocity matrix);
    each per-worker :class:`~repro.optim.adam.Adam` is re-bound onto its rows,
    so fused steps and individual ``optimizer.step()`` calls (SSP's sequential
    path, tests) share one consistent state.  The arithmetic mirrors
    ``Adam._update_flat`` operation for operation, so a fused step is
    bit-identical to the per-worker loop.
    """

    def __init__(self, workers: Sequence[object], matrix: WorkerMatrix) -> None:
        self._workers = list(workers)
        self._optimizers = [w.optimizer for w in workers]
        self._matrix = matrix
        ref = self._optimizers[0]
        self.beta1 = ref.beta1
        self.beta2 = ref.beta2
        self.eps = ref.eps
        self.weight_decay = ref.weight_decay
        self.m = np.zeros_like(matrix.params)
        self.v = np.zeros_like(matrix.params)
        for m_row, v_row, opt in zip(self.m, self.v, self._optimizers):
            opt.rebind_moments(m_row, v_row)

    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls, workers: Sequence[object], matrix: WorkerMatrix
    ) -> Optional["FusedAdamUpdate"]:
        """Build a fused updater, or None when workers aren't uniform Adam."""
        from repro.optim.adam import Adam

        optimizers = [getattr(w, "optimizer", None) for w in workers]
        if not optimizers or any(type(o) is not Adam for o in optimizers):
            return None
        ref = optimizers[0]
        for opt in optimizers[1:]:
            if (
                opt.beta1 != ref.beta1
                or opt.beta2 != ref.beta2
                or opt.eps != ref.eps
                or opt.weight_decay != ref.weight_decay
            ):
                return None
        if any(o._trainable_mask is not None for o in optimizers):
            return None
        return cls(workers, matrix)

    # ------------------------------------------------------------------ #
    def apply(
        self,
        lr: Optional[float] = None,
        grads: Optional[np.ndarray] = None,
    ) -> bool:
        """One Adam step for every worker (see :meth:`FusedSGDUpdate.apply`).

        Returns False when the fused step cannot run (diverged per-worker
        learning rates or bias-correction timesteps, e.g. after SSP stepped
        workers individually) and the caller must fall back to the loop.
        """
        optimizers = self._optimizers
        if lr is not None:
            for opt in optimizers:
                opt.set_lr(lr)
        lr_value = optimizers[0].lr
        if any(opt.lr != lr_value for opt in optimizers[1:]):
            return False
        t_value = optimizers[0]._t
        if any(opt._t != t_value for opt in optimizers[1:]):
            return False

        params = self._matrix.params
        if grads is None:
            grad_rows: np.ndarray = self._matrix.grads
        else:
            grad_rows = np.asarray(grads, dtype=self._matrix.dtype).reshape(1, -1)
        t = t_value + 1
        for opt in optimizers:
            opt._t = t
        if self.weight_decay:
            grad_rows = grad_rows + self.weight_decay * params
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad_rows
        v *= self.beta2
        v += (1.0 - self.beta2) * grad_rows**2
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        params -= lr_value * m_hat / (np.sqrt(v_hat) + self.eps)

        for opt in optimizers:
            opt._step_count += 1
        for worker in self._workers:
            worker.steps_taken += 1
        return True


def build_fused_update(workers: Sequence[object], matrix: WorkerMatrix):
    """Fused whole-cluster updater for a uniform worker set, or None.

    Tries each fused optimizer family in turn; trainers treat the result
    uniformly through its ``apply(lr=..., grads=...) -> bool`` interface.
    """
    fused = FusedSGDUpdate.build(workers, matrix)
    if fused is None:
        fused = FusedAdamUpdate.build(workers, matrix)
    return fused

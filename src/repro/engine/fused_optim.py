"""Fused whole-cluster optimizer updates.

When every worker runs the same optimizer family with identical
hyperparameters (the lockstep simulator's normal configuration), the N
per-worker flat updates collapse further into a handful of ``(N, D)``
matrix operations: the velocity buffers of all workers are rows of one
matrix, exactly like the parameter and gradient buffers.

The SGD updater owns one preallocated ``(N, D)`` scratch matrix and writes
its intermediate products into it through ``out=`` — the same operations in
the same order as the plain expressions (so results are bit-identical),
without allocating fresh ``(N, D)`` temporaries on every step.  The Adam
updater keeps the plain expressions: no ledger workload runs it, so a
rewrite there could not be measured.

Per-worker optimizers stay fully functional — their state is *re-bound*
onto the fused rows, so mixing fused steps (the trainers' hot path) with
individual ``optimizer.step()`` calls (SSP's sequential path, tests) keeps
one consistent state.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.engine.worker_matrix import WorkerMatrix


class FusedSGDUpdate:
    """All workers' SGD steps as a few fused ``(N, D)`` matrix operations."""

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
        self._scratch = np.empty_like(matrix.params)

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

        params = self._matrix.params
        if grads is None:
            grad_rows: np.ndarray = self._matrix.grads
        else:
            grad_rows = np.asarray(grads, dtype=self._matrix.dtype).reshape(1, -1)
        scratch = self._scratch
        if self.weight_decay:
            np.multiply(self.weight_decay, params, out=scratch)
            grad_rows = np.add(grad_rows, scratch, out=scratch)
        if self.momentum:
            buf = self.velocity
            buf *= self.momentum
            buf += grad_rows
            if self.nesterov:
                # The one temporary left: grad_rows may live in the scratch.
                step_dir = self.momentum * buf
                np.add(grad_rows, step_dir, out=step_dir)
            else:
                step_dir = buf
        else:
            step_dir = grad_rows
        # One aggregated gradient without decay or momentum stays a (1, D)
        # row that the subtraction broadcasts; everything else is (N, D).
        params -= np.multiply(lr_value, step_dir, out=scratch[: step_dir.shape[0]])

        for opt in optimizers:
            opt._step_count += 1
        for worker in self._workers:
            worker.steps_taken += 1
        return True


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

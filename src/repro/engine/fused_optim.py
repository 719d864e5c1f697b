"""The cluster's optimizer step: one fused update over the worker matrix.

Every worker runs the same optimizer, so the N per-worker flat updates
collapse into a handful of ``(N, D)`` matrix operations, and the updater owns
the optimizer state of the whole cluster: the state matrices whose rows are
the workers' (SGD's velocity, Adam's ``m`` / ``v`` and a per-row Adam step
count ``t``).  :func:`build_fused_update` builds it from one optimizer
object, whose family and hyperparameters it copies; the optimizer's lr is
one of them, a constant, and each step runs at that lr times the lr
schedule's factor for the step.

A crashed worker (a False entry of the cluster's ``active_mask``) keeps its
parameters and optimizer state: the step runs over every row, unchanged, and
the crashed rows are written back afterwards.  Adam rows that sat out steps
carry their own ``t``, so bias correction is per row.

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
workload runs it, so a rewrite there could not be measured.  Both updaters
match the standalone :class:`~repro.optim.sgd.SGD` / :class:`~repro.optim.adam.Adam`
step row for row, bit for bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.worker_matrix import WorkerMatrix

#: Elements per segment of the cache-blocked SGD step (see the module docstring).
SEGMENT = 32768


class _FusedUpdate:
    """What both updaters share: the learning rate, the active mask and its frozen rows."""

    def __init__(self, optimizer: Any, matrix: WorkerMatrix, active_mask: np.ndarray) -> None:
        self._matrix = matrix
        self._active = active_mask
        #: The optimizer's lr, constant for the run; a step scales it by its factor.
        self.lr = float(optimizer.lr)

    @property
    def state(self) -> Dict[str, np.ndarray]:
        """The live optimizer-state arrays, one row (or entry) per worker."""
        raise NotImplementedError

    def apply(self, lr_factor: float = 1.0, grads: Optional[np.ndarray] = None) -> None:
        """One optimizer step at ``lr * lr_factor`` for every active worker.

        ``lr_factor`` is the lr schedule's shape at this step.  ``grads=None``
        uses each worker's own gradient row; a flat ``(D,)`` vector applies
        the same (aggregated) gradient to every replica.  Crashed rows keep
        their parameters and state.
        """
        lr = self.lr * lr_factor
        if grads is not None:
            grads = np.asarray(grads, dtype=self._matrix.dtype).reshape(-1)
            if grads.size != self._matrix.spec.total_size:
                raise ValueError(
                    f"flat gradient has length {grads.size}, "
                    f"expected {self._matrix.spec.total_size}"
                )
        active = self._active
        if active.all():
            self._step(lr, grads)
            return
        frozen = ~active
        rows = [self._matrix.params, *self.state.values()]
        kept = [array[frozen] for array in rows]
        self._step(lr, grads)
        for array, saved in zip(rows, kept):
            array[frozen] = saved

    def _step(self, lr: float, grads: Optional[np.ndarray]) -> None:
        """The step at ``lr`` over every row; ``grads`` is None or a checked ``(D,)`` vector."""
        raise NotImplementedError


class FusedSGDUpdate(_FusedUpdate):
    """All workers' SGD steps, walked over the worker matrix segment by segment."""

    def __init__(self, optimizer: Any, matrix: WorkerMatrix, active_mask: np.ndarray) -> None:
        super().__init__(optimizer, matrix, active_mask)
        self.momentum = optimizer.momentum
        self.weight_decay = optimizer.weight_decay
        self.nesterov = optimizer.nesterov
        self.velocity = np.zeros_like(matrix.params) if self.momentum else None
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

    @property
    def state(self) -> Dict[str, np.ndarray]:
        return {} if self.velocity is None else {"velocity": self.velocity}

    def _step(self, lr: float, grads: Optional[np.ndarray]) -> None:
        if grads is None:
            for params, grad, velocity, scratch in self._own_blocks:
                self._block_step(lr, params, grad, velocity, scratch)
        else:
            for params, cols, velocity, scratch in self._shared_blocks:
                self._block_step(lr, params, grads[cols], velocity, scratch)

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


class FusedAdamUpdate(_FusedUpdate):
    """All workers' Adam steps as a few fused ``(N, D)`` matrix operations.

    The first / second moments of every worker are rows of two ``(N, D)``
    matrices (the analog of :class:`FusedSGDUpdate`'s velocity matrix), and
    ``t`` holds each row's step count.  The arithmetic mirrors
    ``Adam._update_flat`` operation for operation.
    """

    def __init__(self, optimizer: Any, matrix: WorkerMatrix, active_mask: np.ndarray) -> None:
        super().__init__(optimizer, matrix, active_mask)
        self.beta1 = optimizer.beta1
        self.beta2 = optimizer.beta2
        self.eps = optimizer.eps
        self.weight_decay = optimizer.weight_decay
        self.m = np.zeros_like(matrix.params)
        self.v = np.zeros_like(matrix.params)
        self.t = np.zeros(matrix.num_workers, dtype=np.int64)

    @property
    def state(self) -> Dict[str, np.ndarray]:
        return {"m": self.m, "v": self.v, "t": self.t}

    def _step(self, lr: float, grads: Optional[np.ndarray]) -> None:
        params = self._matrix.params
        grad_rows = self._matrix.grads if grads is None else grads.reshape(1, -1)
        self.t += 1
        if self.weight_decay:
            grad_rows = grad_rows + self.weight_decay * params
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad_rows
        v *= self.beta2
        v += (1.0 - self.beta2) * grad_rows**2
        m_hat = m / self._bias_correction(self.beta1)
        v_hat = v / self._bias_correction(self.beta2)
        params -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _bias_correction(self, beta: float) -> np.ndarray:
        """``1 - beta**t`` of every row as an ``(N, 1)`` column of the matrix dtype.

        Each distinct ``t`` takes one Python-scalar power, as the per-worker
        Adam does: NumPy's vectorised power can differ from it in the last bit.
        """
        steps = self.t.tolist()
        by_step = {t: 1.0 - beta**t for t in set(steps)}
        column = np.array([by_step[t] for t in steps], dtype=self._matrix.dtype)
        return column.reshape(-1, 1)


def build_fused_update(
    optimizer: Any, matrix: WorkerMatrix, active_mask: np.ndarray
) -> _FusedUpdate:
    """The cluster's updater: ``optimizer``'s family and hyperparameters over ``matrix``.

    ``active_mask`` is the cluster's live worker mask.  Raises ``TypeError``
    for anything but an :class:`~repro.optim.sgd.SGD` or
    :class:`~repro.optim.adam.Adam`.
    """
    from repro.optim.adam import Adam
    from repro.optim.sgd import SGD

    if type(optimizer) is SGD:
        return FusedSGDUpdate(optimizer, matrix, active_mask)
    if type(optimizer) is Adam:
        return FusedAdamUpdate(optimizer, matrix, active_mask)
    raise TypeError(f"the fused update runs SGD or Adam, got {type(optimizer).__name__}")

"""Stochastic gradient descent with momentum, Nesterov and weight decay."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.optim.optimizer import Optimizer


class SGD(Optimizer):
    """SGD update  ``w <- w - lr * (m_t)``  with optional momentum buffers.

    Matches the paper's ResNet101 / VGG11 / Transformer training recipes
    (momentum 0.9 and per-model weight decay).  The velocity buffer is one
    flat vector, so a step is 2-3 fused NumPy operations regardless of how
    many tensors the model has.
    """

    def __init__(
        self,
        module: Module,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(module, lr)
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)
        self._velocity_vector = np.zeros(self._spec.total_size, dtype=self._spec.dtype)

    def _update_flat(self, grad_vector: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            grad_vector = grad_vector + self.weight_decay * self._param_vector
        if self.momentum:
            buf = self._velocity_vector
            buf *= self.momentum
            buf += grad_vector
            if self.nesterov:
                step_dir = grad_vector + self.momentum * buf
            else:
                step_dir = buf
        else:
            step_dir = grad_vector
        return self.lr * step_dir

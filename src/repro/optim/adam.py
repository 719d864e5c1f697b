"""Adam optimizer (Kingma & Ba 2014), used for the AlexNet workload."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.optim.optimizer import Optimizer


class Adam(Optimizer):
    """Adam with bias-corrected first/second moments and optional weight decay.

    Both moment buffers are flat vectors, so one step is a constant number of
    fused NumPy operations over the whole model.
    """

    def __init__(
        self,
        module: Module,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(module, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m_vector = np.zeros(self._spec.total_size, dtype=self._spec.dtype)
        self._v_vector = np.zeros(self._spec.total_size, dtype=self._spec.dtype)
        self._t = 0

    def _update_flat(self, grad_vector: np.ndarray) -> np.ndarray:
        # Advance the shared timestep once per optimizer step (not per
        # parameter) so bias correction is consistent across the model.
        self._t += 1
        if self.weight_decay:
            grad_vector = grad_vector + self.weight_decay * self._param_vector
        m = self._m_vector
        v = self._v_vector
        m *= self.beta1
        m += (1.0 - self.beta1) * grad_vector
        v *= self.beta2
        v += (1.0 - self.beta2) * grad_vector**2
        m_hat = m / (1.0 - self.beta1**self._t)
        v_hat = v / (1.0 - self.beta2**self._t)
        return self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

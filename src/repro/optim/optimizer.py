"""Optimizer base class operating on flat parameter buffers.

Constructing an optimizer flattens its module (see
:meth:`repro.nn.module.Module.flatten_parameters`), so one update is a
handful of fused NumPy operations over the whole ``(D,)`` parameter vector
instead of a Python loop over named tensors.  The named-dict ``step(grads)``
signature is preserved: a mapping is flattened once through the module's
layout before the fused update.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

import numpy as np

from repro.nn.module import Module


class Optimizer:
    """Base class: holds the flat parameter buffer and the learning rate.

    Subclasses implement :meth:`_update_flat`, which transforms the flat
    gradient vector into a flat parameter delta.  The split lets the SelSync
    / local-SGD trainers apply the *same* optimizer math whether the gradient
    came from a local backward pass or from an aggregated (averaged) gradient
    pushed by the parameter server — the distinction the paper draws between
    gradient aggregation and parameter aggregation (§III-C).
    """

    def __init__(self, module: Module, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.module = module
        module.flatten_parameters()
        self._spec = module.flat_spec
        # Cache the FlatBuffer objects, not their vectors: a later re-bind
        # of the module's storage (WorkerMatrix adoption) swaps the vector
        # *inside* these same buffer objects, so reads stay current.
        self._param_buffer = module._flat_params
        self._grad_buffer = module._flat_grads
        self.lr = float(lr)

    @property
    def _param_vector(self) -> np.ndarray:
        return self._param_buffer.vector

    @property
    def _grad_vector(self) -> np.ndarray:
        return self._grad_buffer.vector

    def zero_grad(self) -> None:
        self.module.zero_grad()

    def _coerce_grad_vector(
        self, grads: Optional[Union[Mapping[str, np.ndarray], np.ndarray]]
    ) -> np.ndarray:
        """Resolve the gradient source for one step as a flat ``(D,)`` vector."""
        if grads is None:
            return self._grad_vector
        if isinstance(grads, np.ndarray):
            grads = np.asarray(grads, dtype=self._spec.dtype).ravel()
            if grads.size != self._spec.total_size:
                raise ValueError(
                    f"flat gradient has length {grads.size}, "
                    f"expected {self._spec.total_size}"
                )
            return grads
        return self._spec.flatten_tree(grads)

    def step(
        self, grads: Optional[Union[Mapping[str, np.ndarray], np.ndarray]] = None
    ) -> None:
        """Apply one update.

        ``grads`` may be ``None`` (use the gradients accumulated on the
        module), a named mapping, or an already-flat ``(D,)`` vector (the
        zero-copy hot path used when applying averaged gradients that came
        back from the parameter server).
        """
        grad_vector = self._coerce_grad_vector(grads)
        self._param_buffer.vector[...] -= self._update_flat(grad_vector)

    def _update_flat(self, grad_vector: np.ndarray) -> np.ndarray:
        """Map the flat gradient to the flat parameter delta (fused math)."""
        raise NotImplementedError

"""Parameter / Module abstractions with explicit manual backpropagation.

Every layer implements ``forward(x)`` and ``backward(grad_output)``;
``backward`` must be called after ``forward`` (layers cache whatever they
need) and returns the gradient with respect to the layer input while
accumulating parameter gradients into ``Parameter.grad``.  Inside
``Module.inference()`` (evaluation) forwards cache nothing.

The state-dict / gradient-dict interfaces are what the distributed layer
(:mod:`repro.cluster`) uses to push and pull model replicas, mirroring how
the original system ships flat tensors over PyTorch RPC.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.utils.flatten import WIRE_DTYPE_BYTES


class Parameter:
    """A trainable tensor with an associated gradient accumulator."""

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training: bool = True
        # Forward-only switch, set on the whole tree by inference().
        self._inference: bool = False
        # Flat-buffer engine state, populated by flatten_parameters().
        self._flat_params = None
        self._flat_grads = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_module(self, name: str, module: "Module") -> "Module":
        if name in self._modules:
            raise KeyError(f"module {name!r} already registered")
        self._modules[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        # Fast path for hot-loop attribute writes (layer activation caches,
        # masks): plain arrays and None can never need auto-registration.
        if value is None or type(value) is np.ndarray:
            object.__setattr__(self, name, value)
            return
        # Auto-register Parameters and Modules assigned as attributes, in
        # declaration order, like torch.nn.Module does.
        if isinstance(value, Parameter):
            if "_parameters" not in self.__dict__:
                raise AttributeError("call Module.__init__() before assigning parameters")
            self._parameters[name] = value
            value.name = name
        elif isinstance(value, Module):
            if "_modules" not in self.__dict__:
                raise AttributeError("call Module.__init__() before assigning submodules")
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> "OrderedDict[str, Parameter]":
        out: "OrderedDict[str, Parameter]" = OrderedDict()
        for name, param in self._parameters.items():
            out[f"{prefix}{name}"] = param
        for mod_name, module in self._modules.items():
            out.update(module.named_parameters(prefix=f"{prefix}{mod_name}."))
        return out

    def parameters(self) -> List[Parameter]:
        return list(self.named_parameters().values())

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix.rstrip("."), self
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{mod_name}.")

    def num_parameters(self) -> int:
        """Total number of trainable scalars in the module tree."""
        if self._flat_params is not None:
            return self._flat_params.size
        return sum(p.size for p in self.parameters())

    def parameter_bytes(self, dtype_bytes: int = WIRE_DTYPE_BYTES) -> int:
        """Model size in bytes assuming float32 transport, used by the cost model."""
        return self.num_parameters() * dtype_bytes

    # ------------------------------------------------------------------ #
    # flat-buffer engine integration
    # ------------------------------------------------------------------ #
    def flatten_parameters(
        self,
        param_vector: Optional[np.ndarray] = None,
        grad_vector: Optional[np.ndarray] = None,
        dtype=None,
    ) -> None:
        """Consolidate every parameter and gradient into contiguous buffers.

        After this call each ``Parameter.data`` / ``Parameter.grad`` is a
        zero-copy reshaped view into one flat vector of the engine compute
        dtype, so whole-model operations (optimizer steps, aggregation,
        norms) run as single fused NumPy calls.  ``param_vector`` /
        ``grad_vector`` may donate the storage (e.g. rows of the cluster's
        WorkerMatrix); current values are copied into the donated storage.

        ``dtype`` selects the compute dtype on the first flatten (float64
        default); when storage is donated the dtype is inferred from it, so
        adopting a worker-matrix row also adopts the matrix's dtype.  Initial
        float64 parameter values are cast into the flat buffer.

        Calling this again with new storage *moves* the buffers (the current
        contents are preserved; the storage dtype must match).  Only flatten
        the root of a module tree: flattening a submodule afterwards would
        re-bind its parameters away from the root's buffer.
        """
        from repro.engine.dtypes import resolve_dtype
        from repro.engine.flat_buffer import FlatBuffer, ParamSpec

        params = self.named_parameters()
        if self._flat_params is not None:
            if (
                dtype is not None
                and resolve_dtype(dtype) != self._flat_params.spec.dtype
            ):
                raise TypeError(
                    f"module is already flattened as "
                    f"{self._flat_params.spec.dtype.name}; re-flattening as "
                    f"{resolve_dtype(dtype).name} is not supported"
                )
            if param_vector is not None:
                self._flat_params.rebind(param_vector)
            if grad_vector is not None:
                self._flat_grads.rebind(grad_vector)
        else:
            if dtype is None and param_vector is not None:
                dtype = param_vector.dtype
            spec = ParamSpec(
                [(name, p.data.shape) for name, p in params.items()], dtype=dtype
            )
            flat_p = FlatBuffer(spec, param_vector)
            flat_g = FlatBuffer(spec, grad_vector)
            spec.flatten_tree({n: p.data for n, p in params.items()}, out=flat_p.vector)
            spec.flatten_tree({n: p.grad for n, p in params.items()}, out=flat_g.vector)
            self._flat_params = flat_p
            self._flat_grads = flat_g
        for name, param in params.items():
            param.data = self._flat_params[name]
            param.grad = self._flat_grads[name]

    @property
    def dtype(self) -> np.dtype:
        """Compute dtype of the flat buffers (flattens on first access)."""
        return self.flat_spec.dtype

    @property
    def flat_spec(self):
        """Flat layout descriptor (flattens the module on first access)."""
        if self._flat_params is None:
            self.flatten_parameters()
        return self._flat_params.spec

    @property
    def param_vector(self) -> np.ndarray:
        """Live flat view of all parameters (mutations hit the model)."""
        if self._flat_params is None:
            self.flatten_parameters()
        return self._flat_params.vector

    @property
    def grad_vector(self) -> np.ndarray:
        """Live flat view of all accumulated gradients."""
        if self._flat_params is None:
            self.flatten_parameters()
        return self._flat_grads.vector

    def load_param_vector(self, vector: np.ndarray) -> None:
        """Overwrite all parameters from a flat vector (one memcpy)."""
        if self._flat_params is None:
            self.flatten_parameters()
        self._flat_params.load_vector(vector)

    # ------------------------------------------------------------------ #
    # train / eval, gradients
    # ------------------------------------------------------------------ #
    def train(self) -> "Module":
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    @contextmanager
    def inference(self) -> Iterator["Module"]:
        """Forward-only scope for this module tree.

        Inside the scope every layer's ``forward`` computes exactly what it
        computes outside it but keeps nothing for ``backward`` — no cached
        inputs, masks, normalized activations or attention maps — and drops
        whatever an earlier training forward left behind.  ``backward`` after
        an inference forward therefore raises the layer's "called before
        forward" error.

        The switch is independent of :meth:`train` / :meth:`eval`: those
        choose *what* is computed (dropout, batch statistics), this chooses
        whether the backward cache is retained, so an ``eval()``-mode forward
        outside the scope still supports ``backward`` (gradient checks).
        The flag is cleared on the whole tree on exit, also when the body
        raises; scopes do not nest.
        """
        modules = [module for _, module in self.named_modules()]
        for module in modules:
            module._inference = True
        try:
            yield self
        finally:
            for module in modules:
                module._inference = False

    def zero_grad(self) -> None:
        if self._flat_grads is not None:
            self._flat_grads.fill(0.0)
            return
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # state exchange (used by the simulated parameter server / collectives)
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every named parameter's data.

        On a flattened module this is one contiguous memcpy (the returned
        arrays are views into that private snapshot, never into the model).
        """
        if self._flat_params is not None:
            return self._flat_params.as_dict(copy=True)
        return {name: p.data.copy() for name, p in self.named_parameters().items()}

    def load_state_dict(self, state: Mapping[str, np.ndarray], strict: bool = True) -> None:
        params = self.named_parameters()
        if strict:
            missing = set(params) - set(state)
            unexpected = set(state) - set(params)
            if missing or unexpected:
                raise KeyError(
                    f"state dict mismatch: missing={sorted(missing)}, "
                    f"unexpected={sorted(unexpected)}"
                )
        for name, param in params.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            param.data[...] = value

    def gradient_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every named parameter's accumulated gradient.

        On a flattened module this is one contiguous memcpy (the returned
        arrays are views into that private snapshot, never into the model).
        """
        if self._flat_grads is not None:
            return self._flat_grads.as_dict(copy=True)
        return {name: p.grad.copy() for name, p in self.named_parameters().items()}

    # ------------------------------------------------------------------ #
    # forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._layers: List[Module] = []
        for idx, module in enumerate(modules):
            self.register_module(str(idx), module)
            self._layers.append(module)

    def append(self, module: Module) -> "Sequential":
        idx = len(self._layers)
        self.register_module(str(idx), module)
        self._layers.append(module)
        return self

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, idx: int) -> Module:
        return self._layers[idx]

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self._layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self._layers):
            grad_output = layer.backward(grad_output)
        return grad_output

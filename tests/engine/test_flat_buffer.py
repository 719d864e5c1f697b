"""Tests for the flat-buffer engine: ParamSpec, FlatBuffer, WorkerMatrix."""

import numpy as np
import pytest

from repro.engine import FlatBuffer, ParamSpec, WorkerMatrix
from repro.nn.models import MLP
from repro.nn.module import Module, Parameter
from repro.optim.sgd import SGD


class TestParamSpec:
    def test_layout_offsets_and_total(self):
        spec = ParamSpec([("w", (2, 3)), ("b", (3,)), ("s", ())])
        assert spec.total_size == 6 + 3 + 1
        assert spec.slice_of("w") == slice(0, 6)
        assert spec.slice_of("b") == slice(6, 9)
        assert spec.slice_of("s") == slice(9, 10)
        assert spec.shape_of("s") == ()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError):
            ParamSpec([("w", (2,)), ("w", (3,))])

    def test_flatten_tree_validates(self):
        spec = ParamSpec([("w", (2,)), ("b", (3,))])
        with pytest.raises(KeyError):
            spec.flatten_tree({"w": np.zeros(2)})
        with pytest.raises(ValueError):
            spec.flatten_tree({"w": np.zeros(5), "b": np.zeros(3)})

    def test_unflatten_copy_and_view(self):
        spec = ParamSpec([("w", (2, 2))])
        vec = np.arange(4.0)
        copied = spec.unflatten(vec, copy=True)
        copied["w"][...] = 9.0
        assert vec[0] == 0.0
        views = spec.unflatten(vec, copy=False)
        views["w"][0, 0] = 7.0
        assert vec[0] == 7.0

    def test_entries_match_utils_format(self):
        from repro.utils.flatten import flatten_arrays

        tree = {"a": np.arange(6.0).reshape(2, 3), "b": np.zeros(2)}
        _, utils_spec = flatten_arrays(tree)
        entries = ParamSpec.from_tree(tree).entries
        assert [(name, shape) for name, shape, _, _ in entries] == utils_spec


class TestFlatBufferAliasing:
    def test_view_mutation_hits_vector(self):
        buf = FlatBuffer.from_tree({"w": np.zeros((2, 2)), "b": np.zeros(3)})
        buf["w"][1, 1] = 5.0
        assert buf.vector[3] == 5.0

    def test_vector_mutation_hits_view(self):
        buf = FlatBuffer.from_tree({"w": np.zeros((2, 2)), "b": np.zeros(3)})
        buf.vector[4] = -2.0
        assert buf["b"][0] == -2.0

    def test_scalar_parameter_views(self):
        buf = FlatBuffer.from_tree({"s": np.array(3.0)})
        assert buf["s"].shape == ()
        buf.vector[0] = 1.5
        assert float(buf["s"]) == 1.5

    def test_as_dict_copy_is_isolated(self):
        buf = FlatBuffer.from_tree({"w": np.ones(4)})
        snap = buf.as_dict(copy=True)
        snap["w"][...] = 0.0
        assert np.all(buf.vector == 1.0)

    def test_load_vector_and_rebind(self):
        spec = ParamSpec([("w", (4,))])
        buf = FlatBuffer(spec)
        buf.load_vector(np.arange(4.0))
        storage = np.zeros(4)
        buf.rebind(storage)
        np.testing.assert_array_equal(storage, np.arange(4.0))
        buf["w"][0] = 9.0
        assert storage[0] == 9.0

    def test_empty_tree(self):
        buf = FlatBuffer.from_tree({})
        assert buf.size == 0 and buf.vector.size == 0

    def test_dtype_enforced(self):
        spec = ParamSpec([("w", (2,))])
        with pytest.raises(TypeError):
            FlatBuffer(spec, np.zeros(2, dtype=np.float32))


class _Tiny(Module):
    def __init__(self):
        super().__init__()
        self.w = Parameter(np.arange(4.0).reshape(2, 2))
        self.b = Parameter(np.zeros(2))

    def forward(self, x):
        return x @ self.w.data + self.b.data

    def backward(self, g):
        return g


class TestModuleFlattening:
    def test_param_vector_aliases_parameters(self):
        m = _Tiny()
        m.flatten_parameters()
        m.param_vector[0] = 42.0
        assert m.w.data[0, 0] == 42.0
        m.w.data[1, 1] = -1.0
        assert m.param_vector[3] == -1.0

    def test_grad_vector_aliases_gradients(self):
        m = _Tiny()
        m.flatten_parameters()
        m.w.grad += 2.0
        assert np.all(m.grad_vector[:4] == 2.0)
        m.zero_grad()
        assert np.all(m.grad_vector == 0.0)

    def test_flatten_preserves_values(self):
        m = _Tiny()
        before = m.state_dict()
        m.flatten_parameters()
        after = m.state_dict()
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_state_dict_still_returns_copies(self):
        m = _Tiny()
        m.flatten_parameters()
        state = m.state_dict()
        state["w"][...] = 99.0
        assert not np.any(m.w.data == 99.0)

    def test_param_vector_is_live(self):
        m = _Tiny()
        m.param_vector[0] = 11.0
        assert m.w.data.ravel()[0] == 11.0

    def test_reflattening_moves_parameter_values_onto_the_new_storage(self):
        m = _Tiny()
        m.flatten_parameters()
        before = m.param_vector.copy()
        old = m.param_vector
        storage = np.full(m.flat_spec.total_size, -5.0)
        m.flatten_parameters(param_vector=storage)
        np.testing.assert_array_equal(storage, before)
        m.w.data[0, 0] = 8.0
        assert storage[0] == 8.0 and old[0] == before[0]

    def test_reflattening_moves_gradients_onto_the_new_storage(self):
        m = _Tiny()
        m.flatten_parameters()
        m.w.grad += 3.0
        storage = np.zeros(m.flat_spec.total_size)
        m.flatten_parameters(grad_vector=storage)
        assert np.all(storage[:4] == 3.0) and np.all(storage[4:] == 0.0)
        m.zero_grad()
        assert not storage.any()

    def test_rebinding_onto_its_own_vector_keeps_the_values(self):
        buf = FlatBuffer.from_tree({"w": np.arange(3.0)})
        buf.rebind(buf.vector)
        np.testing.assert_array_equal(buf["w"], np.arange(3.0))


class TestWorkerMatrix:
    def _adopted(self, n=3):
        spec = None
        models = [MLP((4, 6, 2), rng=np.random.default_rng(i)) for i in range(n)]
        models[0].flatten_parameters()
        matrix = WorkerMatrix(n, models[0].flat_spec)
        for i, model in enumerate(models):
            matrix.adopt(i, model)
        return matrix, models

    def test_adoption_aliases_rows(self):
        matrix, models = self._adopted()
        models[1].param_vector[0] = 123.0
        assert matrix.params[1, 0] == 123.0
        matrix.params[2, -1] = -7.0
        assert models[2].param_vector[-1] == -7.0

    def test_adoption_preserves_values(self):
        model = MLP((4, 6, 2), rng=np.random.default_rng(0))
        expected = model.state_dict()
        model.flatten_parameters()
        matrix = WorkerMatrix(1, model.flat_spec)
        matrix.adopt(0, model)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, expected[name])

    def test_optimizer_step_mutates_row(self):
        matrix, models = self._adopted()
        opt = SGD(models[0], lr=0.5)
        before = matrix.params[0].copy()
        models[0].grad_vector[:] = 1.0
        opt.step()
        np.testing.assert_allclose(matrix.params[0], before - 0.5)

    def test_broadcast_row_assignment(self):
        matrix, models = self._adopted()
        vec = np.full(matrix.spec.total_size, 3.25)
        matrix.broadcast(vec)
        for model in models:
            np.testing.assert_array_equal(model.param_vector, vec)

    def test_mean_and_consistency(self):
        matrix, _ = self._adopted()
        manual_mean = matrix.params.mean(axis=0)
        np.testing.assert_allclose(matrix.mean_params(), manual_mean)
        assert matrix.divergence() > 0.0
        matrix.broadcast(manual_mean)
        assert matrix.divergence() == pytest.approx(0.0, abs=1e-12)

    def test_state_dict_per_worker(self):
        matrix, models = self._adopted()
        state = matrix.state_dict(1)
        for name, value in models[1].state_dict().items():
            np.testing.assert_array_equal(state[name], value)

    def test_bad_worker_id(self):
        matrix, _ = self._adopted()
        with pytest.raises(ValueError):
            matrix.state_dict(9)

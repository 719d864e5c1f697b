"""Dtype-parameterized engine: registry, buffers, modules and clusters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import WorkerMatrix
from repro.engine.dtypes import (
    DEFAULT_DTYPE,
    DEFAULT_TRANSPORT_DTYPE,
    SUPPORTED_DTYPES,
    TRANSPORT_DTYPES,
    WIRE_DTYPE_BYTES,
    resolve_dtype,
    resolve_transport_dtype,
    transport_dtype_bytes,
    transport_scale,
    wire_dtype_bytes,
)
from repro.engine.flat_buffer import FlatBuffer, ParamSpec
from repro.nn.models import MLP

DTYPES = ["float32", "float64"]


class TestDtypeRegistry:
    def test_default_is_float64(self):
        assert resolve_dtype(None) == np.dtype(np.float64) == DEFAULT_DTYPE

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_resolve_accepts_names_types_and_dtypes(self, dtype):
        expected = np.dtype(dtype)
        assert resolve_dtype(dtype) == expected
        assert resolve_dtype(expected) == expected
        assert resolve_dtype(expected.type) == expected

    @pytest.mark.parametrize("bad", ["float16", "int32", np.int64, "complex128"])
    def test_unsupported_dtypes_raise(self, bad):
        with pytest.raises(TypeError, match="unsupported"):
            resolve_dtype(bad)

    def test_wire_bytes_mapping(self):
        # Transport is float32 regardless of the compute dtype, so both
        # supported dtypes charge the canonical 4 bytes/element.
        for dtype in SUPPORTED_DTYPES:
            assert wire_dtype_bytes(dtype) == WIRE_DTYPE_BYTES == 4

    def test_wire_bytes_matches_legacy_constant(self):
        # The re-export consumed across comm/compression must stay in sync.
        from repro.utils.flatten import WIRE_DTYPE_BYTES as legacy

        assert legacy == WIRE_DTYPE_BYTES

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_resolved_name_round_trips(self, dtype):
        assert resolve_dtype(dtype).name == dtype


class TestTransportRegistry:
    def test_wire_bytes_mapping_is_exhaustive(self):
        # The transport mapping is the single source for on-wire element
        # widths: half, single and double precision, nothing else.
        expected = {"float16": 2, "float32": 4, "float64": 8}
        assert {d.name for d in TRANSPORT_DTYPES} == set(expected)
        for name, nbytes in expected.items():
            assert transport_dtype_bytes(name) == nbytes
            assert resolve_transport_dtype(name) == np.dtype(name)

    def test_default_transport_is_the_canonical_float32_wire(self):
        assert DEFAULT_TRANSPORT_DTYPE == np.dtype(np.float32)
        assert resolve_transport_dtype(None) == np.dtype(np.float32)
        assert transport_dtype_bytes() == WIRE_DTYPE_BYTES

    def test_transport_scale_relative_to_float32(self):
        assert transport_scale("float16") == 0.5
        assert transport_scale("float32") == 1.0
        assert transport_scale("float64") == 2.0
        assert transport_scale(None) == 1.0

    @pytest.mark.parametrize("bad", ["int8", "int32", np.complex128, "bfloat16"])
    def test_unsupported_transport_dtypes_raise(self, bad):
        with pytest.raises(TypeError):
            resolve_transport_dtype(bad)

    def test_float16_stays_rejected_as_compute_dtype(self):
        # float16 is a transport mode only: engine buffers never hold it.
        with pytest.raises(TypeError, match="unsupported"):
            resolve_dtype("float16")
        assert np.dtype(np.float16) not in SUPPORTED_DTYPES

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_backend_records_the_float16_transport_entry(self, dtype):
        # The backend's byte records and the transport mapping must agree:
        # a float16 wire records half the float32 wire's bytes, and the
        # arrays themselves are never cast.
        from repro.comm.backend import InProcessBackend

        matrix = np.linspace(-1.0, 1.0, 3 * 33, dtype=dtype).reshape(3, 33)
        half = InProcessBackend(3, transport_dtype="float16")
        full = InProcessBackend(3)
        mean = half.allreduce_matrix(matrix)
        full.allreduce_matrix(matrix)
        assert mean.dtype == np.dtype(dtype)
        assert half.dtype_bytes == transport_dtype_bytes("float16")
        assert half.record.total_bytes * 2 == full.record.total_bytes
        assert full.record.total_bytes == 2 * 3 * 33 * wire_dtype_bytes(dtype)


class TestSpecAndBufferDtype:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_spec_allocates_and_views_in_dtype(self, dtype):
        spec = ParamSpec([("w", (3, 2)), ("b", (2,))], dtype=dtype)
        vec = spec.allocate()
        assert vec.dtype == np.dtype(dtype)
        views = spec.views(vec)
        assert all(v.dtype == np.dtype(dtype) for v in views.values())

    def test_spec_dtype_mismatch_raises(self):
        spec32 = ParamSpec([("w", (4,))], dtype="float32")
        with pytest.raises(TypeError, match="float32"):
            spec32.views(np.zeros(4, dtype=np.float64))

    def test_spec_equality_includes_dtype(self):
        shapes = [("w", (4,))]
        assert ParamSpec(shapes, dtype="float32") != ParamSpec(shapes, dtype="float64")
        assert ParamSpec(shapes, dtype="float64") == ParamSpec(shapes)

    def test_layout_does_not_depend_on_dtype(self):
        shapes = [("w", (3, 2)), ("b", (2,))]
        spec32 = ParamSpec(shapes, dtype="float32")
        assert spec32.dtype == np.dtype(np.float32)
        assert spec32.entries == ParamSpec(shapes, dtype="float64").entries

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_flat_buffer_roundtrip(self, dtype):
        tree = {"w": np.arange(6, dtype=np.float64).reshape(3, 2), "b": np.ones(2)}
        buf = FlatBuffer.from_tree(tree, dtype=dtype)
        assert buf.dtype == np.dtype(dtype)
        assert buf.vector.dtype == np.dtype(dtype)
        rebuilt = buf.as_dict(copy=True)
        for name in tree:
            assert rebuilt[name].dtype == np.dtype(dtype)
            np.testing.assert_allclose(rebuilt[name], tree[name], rtol=1e-6)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_load_vector_casts_cross_dtype(self, dtype):
        spec = ParamSpec([("w", (4,))], dtype=dtype)
        buf = FlatBuffer(spec)
        other = np.arange(4, dtype=np.float32 if dtype == "float64" else np.float64)
        buf.load_vector(other)
        assert buf.vector.dtype == np.dtype(dtype)
        np.testing.assert_allclose(buf.vector, other)


class TestModuleAndMatrixDtype:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_flatten_parameters_casts_views(self, dtype):
        model = MLP((6, 8, 3), rng=np.random.default_rng(0))
        model.flatten_parameters(dtype=dtype)
        assert model.dtype == np.dtype(dtype)
        assert model.param_vector.dtype == np.dtype(dtype)
        assert model.grad_vector.dtype == np.dtype(dtype)
        for param in model.parameters():
            assert param.data.dtype == np.dtype(dtype)
            assert param.grad.dtype == np.dtype(dtype)
            # views must alias the flat storage
            assert param.data.base is not None

    def test_reflatten_with_other_dtype_raises(self):
        model = MLP((4, 3), rng=np.random.default_rng(0))
        model.flatten_parameters(dtype="float32")
        with pytest.raises(TypeError, match="already flattened"):
            model.flatten_parameters(dtype="float64")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_adoption_inherits_matrix_dtype(self, dtype):
        ref = MLP((6, 8, 3), rng=np.random.default_rng(0))
        ref.flatten_parameters(dtype=dtype)
        matrix = WorkerMatrix(3, ref.flat_spec)
        assert matrix.dtype == np.dtype(dtype)
        assert matrix.params.dtype == np.dtype(dtype)
        assert matrix.grads.dtype == np.dtype(dtype)
        for worker_id in range(3):
            model = MLP((6, 8, 3), rng=np.random.default_rng(worker_id))
            matrix.adopt(worker_id, model)
            assert model.dtype == np.dtype(dtype)
            assert model.param_vector is not None
            # adopted storage aliases the matrix row
            model.param_vector[0] = 7.5
            assert matrix.params[worker_id, 0] == np.dtype(dtype).type(7.5)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_backward_stay_in_dtype(self, dtype):
        model = MLP((6, 8, 3), rng=np.random.default_rng(0))
        model.flatten_parameters(dtype=dtype)
        x = np.random.default_rng(1).standard_normal((5, 6))
        logits = model.forward(x)
        assert logits.dtype == np.dtype(dtype)
        model.backward(np.ones_like(logits))
        assert model.grad_vector.dtype == np.dtype(dtype)


class TestClusterDtypeConsistency:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_every_engine_buffer_shares_the_cluster_dtype(self, dtype):
        from repro.cluster.cluster import ClusterConfig, SimulatedCluster
        from repro.data.datasets import make_classification_splits
        from repro.optim.sgd import SGD

        train, test = make_classification_splits(
            128, 64, 4, 8, class_sep=3.0, noise=0.5, seed=0
        )
        config = ClusterConfig(num_workers=3, batch_size=8, seed=0, dtype=dtype)
        cluster = SimulatedCluster(
            model_factory=lambda rng: MLP((8, 12, 4), rng=rng),
            optimizer_factory=lambda m: SGD(m, lr=0.1, momentum=0.9),
            train_dataset=train,
            test_dataset=test,
            config=config,
        )
        expected = np.dtype(dtype)
        assert cluster.dtype == expected
        assert cluster.matrix.params.dtype == expected
        assert cluster.matrix.grads.dtype == expected
        assert cluster.ps.state_vector.dtype == expected
        assert cluster.fused_update.velocity.dtype == expected
        for worker in cluster.workers:
            assert worker.param_vector.dtype == expected
        # one step keeps everything in-dtype
        cluster.compute_gradients_all(cluster.next_batches())
        cluster.apply_local_updates()
        assert cluster.matrix.grads.dtype == expected
        assert cluster.matrix.mean_params().dtype == expected

    def test_invalid_cluster_dtype_rejected(self):
        from repro.cluster.cluster import ClusterConfig

        with pytest.raises(TypeError, match="unsupported"):
            ClusterConfig(num_workers=2, dtype="float16")

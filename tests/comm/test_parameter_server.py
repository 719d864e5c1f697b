"""Tests for the simulated parameter server."""

import numpy as np
import pytest

from repro.comm.parameter_server import ParameterServer


@pytest.fixture
def ps():
    state = {"w": np.zeros((2, 2)), "b": np.zeros(3)}
    return ParameterServer(state, num_workers=4)


class TestPullPush:
    def test_pull_returns_copy(self, ps):
        state = ps.pull()
        state["w"][...] = 5.0
        np.testing.assert_array_equal(ps.pull()["w"], 0.0)

    def test_state_bytes(self, ps):
        assert ps.state_bytes() == (4 + 3) * 4

    def test_pull_invalid_worker(self, ps):
        with pytest.raises(ValueError):
            ps.pull(worker_id=9)


class TestParameterAggregation:
    def test_average_of_pushed_states(self, ps):
        pushed = {
            0: {"w": np.full((2, 2), 2.0), "b": np.zeros(3)},
            1: {"w": np.full((2, 2), 4.0), "b": np.full(3, 6.0)},
        }
        new_state = ps.aggregate_parameters(pushed)
        np.testing.assert_allclose(new_state["w"], 3.0)
        np.testing.assert_allclose(new_state["b"], 3.0)

    def test_version_and_counters_advance(self, ps):
        ps.aggregate_parameters({0: ps.pull()})
        assert ps.version == 1
        assert ps.aggregations == 1
        assert ps.total_pushed_bytes > 0

    def test_missing_parameter_rejected(self, ps):
        with pytest.raises(KeyError):
            ps.aggregate_parameters({0: {"w": np.zeros((2, 2))}})

    def test_shape_mismatch_rejected(self, ps):
        with pytest.raises(ValueError):
            ps.aggregate_parameters({0: {"w": np.zeros((3, 3)), "b": np.zeros(3)}})

    def test_empty_push_rejected(self, ps):
        with pytest.raises(ValueError):
            ps.aggregate_parameters({})


class TestGradientAggregation:
    def test_returns_average_without_touching_state(self, ps):
        grads = {
            0: {"w": np.full((2, 2), 1.0), "b": np.ones(3)},
            1: {"w": np.full((2, 2), 3.0), "b": np.ones(3)},
        }
        averaged = ps.aggregate_gradients(grads)
        np.testing.assert_allclose(averaged["w"], 2.0)
        np.testing.assert_array_equal(ps.pull()["w"], 0.0)  # state unchanged

    def test_set_state_overwrites(self, ps):
        ps.set_state({"w": np.full((2, 2), 7.0), "b": np.full(3, 7.0)})
        np.testing.assert_allclose(ps.pull()["w"], 7.0)


class TestPushDeltas:
    def test_row_i_is_the_sequential_prefix(self, ps):
        deltas = np.arange(4 * 7, dtype=np.float64).reshape(4, 7)
        pulled = ps.push_deltas(deltas)
        np.testing.assert_array_equal(pulled, np.cumsum(deltas, axis=0))
        np.testing.assert_array_equal(ps.state_vector, deltas.sum(axis=0))

    def test_adds_onto_the_current_state(self, ps):
        ps.set_state({"w": np.full((2, 2), 1.0), "b": np.full(3, 1.0)})
        pulled = ps.push_deltas(np.full((2, 7), 0.5))
        np.testing.assert_array_equal(pulled, [[1.5] * 7, [2.0] * 7])

    def test_counts_one_push_and_one_pull_per_row(self, ps):
        version = ps.version
        ps.push_deltas(np.zeros((3, 7)))
        assert ps.total_pushed_bytes == 3 * ps.state_bytes()
        assert ps.total_pulled_bytes == 3 * ps.state_bytes()
        assert ps.version == version + 3
        assert ps.aggregations == 0

    def test_returns_a_copy(self, ps):
        pulled = ps.push_deltas(np.ones((1, 7)))
        pulled[0] = 9.0
        np.testing.assert_array_equal(ps.state_vector, 1.0)

    @pytest.mark.parametrize("shape", [(7,), (0, 7), (2, 6), (2, 7, 1)])
    def test_bad_shape_rejected(self, ps, shape):
        with pytest.raises(ValueError):
            ps.push_deltas(np.zeros(shape))
        np.testing.assert_array_equal(ps.state_vector, 0.0)
        assert ps.total_pushed_bytes == 0


class TestConstruction:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParameterServer({"w": np.zeros(2)}, num_workers=0)

    def test_initial_state_copied(self):
        source = {"w": np.zeros(2)}
        ps = ParameterServer(source, num_workers=1)
        source["w"][0] = 9.0
        np.testing.assert_array_equal(ps.pull()["w"], 0.0)

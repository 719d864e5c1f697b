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


class TestAsyncSSPPath:
    def test_delta_applied_immediately(self, ps):
        delta = {"w": np.full((2, 2), 0.5), "b": np.zeros(3)}
        new_state = ps.async_apply_delta(0, delta)
        np.testing.assert_allclose(new_state["w"], 0.5)

    def test_clock_and_staleness_tracking(self, ps):
        delta = {"w": np.zeros((2, 2)), "b": np.zeros(3)}
        for _ in range(3):
            ps.async_apply_delta(0, delta)
        assert ps.staleness(0) == 3
        assert ps.staleness(1) == 0
        assert int(ps.worker_clocks.min()) == 0

    def test_updates_compose_across_workers(self, ps):
        delta = {"w": np.ones((2, 2)), "b": np.zeros(3)}
        ps.async_apply_delta(0, delta)
        ps.async_apply_delta(1, delta)
        np.testing.assert_allclose(ps.pull()["w"], 2.0)

    def test_invalid_worker_rejected(self, ps):
        with pytest.raises(ValueError):
            ps.async_apply_delta(7, {"w": np.zeros((2, 2)), "b": np.zeros(3)})
        with pytest.raises(ValueError):
            ps.staleness(7)


class TestConstruction:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParameterServer({"w": np.zeros(2)}, num_workers=0)

    def test_initial_state_copied(self):
        source = {"w": np.zeros(2)}
        ps = ParameterServer(source, num_workers=1)
        source["w"][0] = 9.0
        np.testing.assert_array_equal(ps.pull()["w"], 0.0)

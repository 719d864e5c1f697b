"""Tests for SelSyncConfig and parameter/gradient aggregation helpers."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.aggregation import (
    AggregationMode,
    aggregate_gradients,
    aggregate_parameters,
)
from repro.core.config import STATISTICS, SelSyncConfig


class TestSelSyncConfig:
    def test_defaults(self):
        config = SelSyncConfig()
        assert config.delta == 0.25
        assert config.aggregation == "param"
        assert config.ewma_alpha is None
        assert config.statistic == "variance"
        assert not config.uses_injection

    def test_has_no_window_field(self):
        """The EWMA recursion reads no window, so the config offers none."""
        assert len(fields(SelSyncConfig)) == 7
        with pytest.raises(TypeError, match="ewma_window"):
            SelSyncConfig(ewma_window=25)

    def test_statistic_validated(self):
        for statistic in STATISTICS:
            assert SelSyncConfig(statistic=statistic).statistic == statistic
        with pytest.raises(ValueError, match="median"):
            SelSyncConfig(statistic="median")

    def test_resolved_alpha_uses_paper_rule(self):
        """EWMA smoothing factor defaults to num_workers / 100 (0.16 for 16)."""
        config = SelSyncConfig()
        assert config.resolved_alpha(16) == pytest.approx(0.16)

    def test_resolved_alpha_clamped(self):
        config = SelSyncConfig()
        assert config.resolved_alpha(0) == pytest.approx(0.01)
        assert config.resolved_alpha(500) == 1.0

    def test_explicit_alpha_wins(self):
        config = SelSyncConfig(ewma_alpha=0.5)
        assert config.resolved_alpha(16) == 0.5

    def test_injection_requires_both_fractions(self):
        with pytest.raises(ValueError):
            SelSyncConfig(injection_alpha=0.5)
        config = SelSyncConfig(injection_alpha=0.5, injection_beta=0.5)
        assert config.uses_injection

    def test_label_formats(self):
        assert "δ=0.3" in SelSyncConfig(delta=0.3).label()
        label = SelSyncConfig(delta=0.3, injection_alpha=0.5, injection_beta=0.5).label()
        assert "α=0.5" in label and "β=0.5" in label

    def test_validation(self):
        with pytest.raises(ValueError):
            SelSyncConfig(delta=-1.0)
        with pytest.raises(ValueError):
            SelSyncConfig(aggregation="hybrid")
        with pytest.raises(ValueError):
            SelSyncConfig(ewma_alpha=2.0)
        with pytest.raises(ValueError):
            SelSyncConfig(injection_alpha=1.5, injection_beta=0.5)


class TestAggregation:
    def _states(self):
        return [
            {"w": np.full((2, 2), 1.0), "b": np.zeros(2)},
            {"w": np.full((2, 2), 3.0), "b": np.full(2, 4.0)},
        ]

    def test_parameter_average(self):
        avg = aggregate_parameters(self._states())
        np.testing.assert_allclose(avg["w"], 2.0)
        np.testing.assert_allclose(avg["b"], 2.0)

    def test_gradient_average(self):
        avg = aggregate_gradients(self._states())
        np.testing.assert_allclose(avg["w"], 2.0)

    def test_single_replica_is_identity(self):
        state = self._states()[0]
        avg = aggregate_parameters([state])
        for name in state:
            np.testing.assert_array_equal(avg[name], state[name])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_parameters([])

    def test_key_mismatch_rejected(self):
        with pytest.raises(KeyError):
            aggregate_parameters([{"w": np.zeros(2)}, {"v": np.zeros(2)}])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            aggregate_parameters([{"w": np.zeros(2)}, {"w": np.zeros(3)}])

    def _matrix(self, states):
        from repro.engine import ParamSpec, WorkerMatrix

        spec = ParamSpec.from_tree(states[0])
        matrix = WorkerMatrix(len(states), spec)
        matrix.params[:] = np.stack([spec.flatten_tree(s) for s in states])
        return matrix

    def test_matrix_divergence_zero_for_identical(self):
        state = self._states()[0]
        assert self._matrix([state, state]).divergence() == pytest.approx(0.0, abs=1e-12)

    def test_matrix_divergence_positive_for_diverged(self):
        assert self._matrix(self._states()).divergence() > 0.0

    def test_mode_enum_round_trip(self):
        assert AggregationMode("param") is AggregationMode.PARAMETER
        assert AggregationMode("grad") is AggregationMode.GRADIENT

    def test_matrix_mean_matches_dict_form(self):
        """PA on the worker matrix is the named-tree average, bit for bit."""
        states = self._states()
        mean = self._matrix(states).mean_state_dict()
        for name, value in aggregate_parameters(states).items():
            np.testing.assert_array_equal(mean[name], value)

    def test_matrix_divergence_matches_dict_form(self):
        states = self._states()
        avg = aggregate_parameters(states)
        distances = [
            np.sqrt(sum(np.sum((s[name] - avg[name]) ** 2) for name in avg)) for s in states
        ]
        np.testing.assert_allclose(
            self._matrix(states).divergence(), np.mean(distances), rtol=1e-12
        )

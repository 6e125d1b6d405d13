"""Tests for repro.config."""

import numpy as np
import pytest

from repro.config import (
    DEFAULT_DAMPING,
    DEFAULT_ITERATIONS,
    SimRankConfig,
    iterations_for_accuracy,
)
from repro.dtypes import DEFAULT_FLOAT_DTYPE, resolve_dtype
from repro.exceptions import ConfigError


class TestResolveDtype:
    def test_resolve_dtype_names_and_default(self):
        assert resolve_dtype(None) == DEFAULT_FLOAT_DTYPE == np.float64
        assert resolve_dtype("float32") == np.dtype(np.float32)
        assert resolve_dtype(np.float64) == np.dtype(np.float64)
        for unsupported in ("float16", np.int8):
            with pytest.raises(ConfigError):
                resolve_dtype(unsupported)


class TestSimRankConfig:
    def test_defaults_match_paper_evaluation_settings(self):
        config = SimRankConfig()
        assert config.damping == DEFAULT_DAMPING == 0.6
        assert config.iterations == DEFAULT_ITERATIONS == 15

    def test_accuracy_bound_is_damping_power_iterations(self):
        config = SimRankConfig(damping=0.6, iterations=15)
        assert config.accuracy_bound == pytest.approx(0.6**15)

    def test_paper_accuracy_claim(self):
        # "K = 15, with which a high accuracy C^K ~ 0.0005 is attainable".
        assert SimRankConfig(0.6, 15).accuracy_bound < 5e-4

    @pytest.mark.parametrize("damping", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_damping_outside_open_unit_interval(self, damping):
        with pytest.raises(ConfigError):
            SimRankConfig(damping=damping)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_rejects_non_positive_iterations(self, iterations):
        with pytest.raises(ConfigError):
            SimRankConfig(iterations=iterations)

    def test_with_iterations_returns_modified_copy(self):
        config = SimRankConfig(0.8, 10)
        other = config.with_iterations(20)
        assert other.iterations == 20
        assert other.damping == 0.8
        assert config.iterations == 10  # original untouched

    def test_with_damping_returns_modified_copy(self):
        config = SimRankConfig(0.8, 10)
        other = config.with_damping(0.6)
        assert other.damping == 0.6
        assert other.iterations == 10

    def test_is_frozen(self):
        config = SimRankConfig()
        with pytest.raises(AttributeError):
            config.damping = 0.9

    def test_equality_and_hash(self):
        assert SimRankConfig(0.6, 15) == SimRankConfig(0.6, 15)
        assert hash(SimRankConfig(0.6, 15)) == hash(SimRankConfig(0.6, 15))


class TestIterationsForAccuracy:
    def test_matches_paper_choice(self):
        assert iterations_for_accuracy(0.6, 0.0005) == 15

    def test_bound_actually_met(self):
        for damping in (0.3, 0.6, 0.8, 0.95):
            for epsilon in (0.1, 0.01, 0.001):
                k = iterations_for_accuracy(damping, epsilon)
                assert damping**k <= epsilon + 1e-12
                assert damping ** (k - 1) > epsilon or k == 1

    def test_rejects_bad_damping(self):
        with pytest.raises(ConfigError):
            iterations_for_accuracy(1.0, 0.1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ConfigError):
            iterations_for_accuracy(0.6, 0.0)
        with pytest.raises(ConfigError):
            iterations_for_accuracy(0.6, 1.5)

"""Tests for repro.prediction.beta."""

import numpy as np
import pytest

from repro.prediction.beta import BetaDistribution


class TestConstruction:
    def test_parameters_clamped_to_one(self):
        dist = BetaDistribution(0.2, 0.5)
        assert dist.alpha == 1.0
        assert dist.beta == 1.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            BetaDistribution(float("nan"), 2.0)
        with pytest.raises(ValueError):
            BetaDistribution(2.0, float("inf"))


class TestMoments:
    def test_mean(self):
        assert BetaDistribution(2, 8).mean == pytest.approx(0.2)

    def test_variance_positive(self):
        assert BetaDistribution(3, 5).variance > 0

    def test_std_is_sqrt_of_variance(self):
        dist = BetaDistribution(3, 5)
        assert dist.std == pytest.approx(np.sqrt(dist.variance))

    def test_mode_unimodal(self):
        dist = BetaDistribution(4, 6)
        assert dist.mode == pytest.approx(3 / 8)

    def test_mode_uniform_is_none(self):
        assert BetaDistribution(1, 1).mode is None


class TestQuantiles:
    def test_quantile_monotone(self):
        dist = BetaDistribution(3, 7)
        assert dist.quantile(0.1) < dist.quantile(0.5) < dist.quantile(0.9)

    def test_confidence_interval_contains_mean(self):
        dist = BetaDistribution(5, 5)
        low, high = dist.confidence_interval(0.9)
        assert low < dist.mean < high

    def test_wider_interval_for_higher_level(self):
        dist = BetaDistribution(5, 5)
        low90, high90 = dist.confidence_interval(0.9)
        low50, high50 = dist.confidence_interval(0.5)
        assert high90 - low90 > high50 - low50

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            BetaDistribution(2, 2).confidence_interval(1.5)


class TestSampling:
    def test_samples_in_open_interval(self, rng):
        dist = BetaDistribution(2, 5)
        samples = dist.sample(rng, size=500)
        assert np.all(samples > 0)
        assert np.all(samples < 1)

    def test_sample_mean_close_to_mean(self, rng):
        dist = BetaDistribution(4, 6)
        samples = dist.sample(rng, size=20_000)
        assert float(np.mean(samples)) == pytest.approx(dist.mean, abs=0.01)

    def test_scalar_sample(self, rng):
        value = BetaDistribution(2, 2).sample(rng)
        assert isinstance(value, float)

"""Tests for repro.prediction.beta."""

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

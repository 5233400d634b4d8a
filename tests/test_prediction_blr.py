"""Tests for repro.prediction.blr."""

import numpy as np
import pytest

from repro.prediction.blr import BayesianLinearRegression


@pytest.fixture
def linear_data(rng):
    X = rng.normal(size=(120, 3))
    weights = np.array([2.0, -1.0, 0.5])
    y = 1.5 + X @ weights + rng.normal(scale=0.05, size=120)
    return X, y, weights


class TestFit:
    def test_recovers_linear_weights(self, linear_data):
        X, y, weights = linear_data
        model = BayesianLinearRegression().fit(X, y)
        fitted = model.mean_
        assert fitted[0] == pytest.approx(1.5, abs=0.1)
        assert np.allclose(fitted[1:], weights, atol=0.1)

    def test_log_marginal_likelihood_finite(self, linear_data):
        X, y, _ = linear_data
        model = BayesianLinearRegression().fit(X, y)
        assert np.isfinite(model.log_marginal_likelihood_)

    def test_better_fit_has_higher_evidence(self, rng):
        X = rng.normal(size=(80, 2))
        y_structured = X @ np.array([3.0, -2.0])
        y_noise = rng.normal(size=80) * 5.0
        good = BayesianLinearRegression().fit(X, y_structured)
        bad = BayesianLinearRegression().fit(X, y_noise)
        assert good.log_marginal_likelihood_ > bad.log_marginal_likelihood_

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(ValueError):
            BayesianLinearRegression().fit(rng.normal(size=(5, 2)), rng.normal(size=4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression().fit(np.empty((0, 2)), np.empty(0))


class TestPredict:
    def test_prediction_accuracy(self, linear_data):
        X, y, _ = linear_data
        model = BayesianLinearRegression().fit(X[:100], y[:100])
        pred = model.predict(X[100:])
        assert np.mean(np.abs(pred - y[100:])) < 0.2

    def test_predictive_std_positive(self, linear_data):
        X, y, _ = linear_data
        model = BayesianLinearRegression().fit(X, y)
        mean, std = model.predict(X[:5], return_std=True)
        assert mean.shape == (5,)
        assert np.all(std > 0)

    def test_uncertainty_larger_far_from_data(self, linear_data):
        X, y, _ = linear_data
        model = BayesianLinearRegression().fit(X, y)
        _, near = model.predict(np.zeros((1, 3)), return_std=True)
        _, far = model.predict(np.full((1, 3), 20.0), return_std=True)
        assert far[0] > near[0]

    def test_predict_one(self, linear_data):
        X, y, _ = linear_data
        model = BayesianLinearRegression().fit(X, y)
        mean, std = model.predict_one(X[0])
        assert isinstance(mean, float) and isinstance(std, float)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BayesianLinearRegression().predict(np.zeros((1, 3)))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BayesianLinearRegression(max_evidence_iterations=0)

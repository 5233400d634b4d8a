"""Tests for repro.prediction.features."""

import numpy as np
import pytest

from repro.prediction.features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    FeatureScaler,
    feature_vector,
    job_features,
)
from tests.conftest import make_running_job


class TestFeatureVector:
    def test_length_matches_names(self):
        vec = feature_vector(1000, 2.3, 500, 0.2, 0.7)
        assert vec.shape == (NUM_FEATURES,)
        assert len(FEATURE_NAMES) == NUM_FEATURES

    def test_log_transforms_applied(self):
        vec = feature_vector(1000, 2.3, 0, 0.0, 0.0)
        assert vec[0] == pytest.approx(np.log1p(1000))
        assert vec[2] == pytest.approx(0.0)

    def test_clipping(self):
        vec = feature_vector(1000, 2.3, 10, 5.0, 1.7)
        assert vec[3] == 1.0
        assert vec[4] == 1.0

    def test_job_features_from_live_job(self):
        job = make_running_job(dataset_size=2000)
        job.advance(1000, 5.0)
        vec = job_features(job)
        assert vec.shape == (NUM_FEATURES,)
        assert np.all(np.isfinite(vec))


class TestFeatureScaler:
    def test_standardises_columns(self, rng):
        X = rng.normal(5.0, 2.0, size=(200, NUM_FEATURES))
        scaler = FeatureScaler().fit(X)
        Z = scaler.transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_passthrough(self):
        X = np.ones((10, NUM_FEATURES))
        Z = FeatureScaler().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_single_vector_transform(self, rng):
        X = rng.normal(size=(50, NUM_FEATURES))
        scaler = FeatureScaler().fit(X)
        z = scaler.transform(X[0])
        assert z.shape == (NUM_FEATURES,)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            FeatureScaler().transform(np.zeros(NUM_FEATURES))

    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            FeatureScaler().fit(np.empty((0, NUM_FEATURES)))


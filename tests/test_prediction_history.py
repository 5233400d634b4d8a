"""Tests for repro.prediction.history."""

import pytest

from repro.prediction.features import NUM_FEATURES
from repro.prediction.history import HistoryStore, TrainingExample, examples_from_job
from tests.conftest import make_running_job


def _completed_job(job_id="done-1", epochs=5):
    job = make_running_job(job_id=job_id, dataset_size=1000, base_epochs=2.0, patience=2)
    for e in range(epochs):
        job.advance(1000, 2.0)
        job.complete_epoch(2.0 * (e + 1))
    job.mark_completed(2.0 * epochs)
    return job


class TestTrainingExample:
    def test_wrong_feature_count_rejected(self):
        with pytest.raises(ValueError):
            TrainingExample(features=(1.0,), epochs_remaining=3.0)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            TrainingExample(features=tuple([0.0] * NUM_FEATURES), epochs_remaining=-1)


class TestExamplesFromJob:
    def test_one_example_per_epoch(self):
        job = _completed_job(epochs=6)
        examples = examples_from_job(job)
        assert len(examples) == 6

    def test_labels_count_down_to_zero(self):
        job = _completed_job(epochs=4)
        labels = [e.epochs_remaining for e in examples_from_job(job)]
        assert labels == [3.0, 2.0, 1.0, 0.0]

    def test_uncompleted_job_rejected(self):
        job = make_running_job()
        with pytest.raises(ValueError):
            examples_from_job(job)


class TestHistoryStore:
    def test_add_completed_job(self):
        store = HistoryStore(max_size=100, seed=0)
        added = store.add_completed_job(_completed_job())
        assert added == len(store)
        assert store.completed_jobs == 1

    def test_thinning_respects_max_size(self):
        store = HistoryStore(max_size=10, seed=0)
        for i in range(5):
            store.add_completed_job(_completed_job(job_id=f"j{i}", epochs=8))
        assert len(store) == 10
        assert store.completed_jobs == 5

    def test_as_arrays_shapes(self):
        store = HistoryStore(max_size=50, seed=0)
        store.add_completed_job(_completed_job(epochs=5))
        X, y = store.as_arrays()
        assert X.shape == (5, NUM_FEATURES)
        assert y.shape == (5,)

    def test_as_arrays_empty(self):
        X, y = HistoryStore().as_arrays()
        assert X.shape == (0, NUM_FEATURES)
        assert y.shape == (0,)

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            HistoryStore(max_size=0)

"""Tests for repro.prediction.predictor."""

import numpy as np
import pytest

from repro.prediction.beta import BetaDistribution
from repro.prediction.predictor import PredictorConfig, ProgressPredictor
from tests.conftest import make_running_job


def _completed_job(job_id="hist", epochs=6, dataset_size=1000):
    job = make_running_job(job_id=job_id, dataset_size=dataset_size, base_epochs=3.0, patience=2)
    for e in range(epochs):
        job.advance(dataset_size, 2.0)
        job.complete_epoch(2.0 * (e + 1))
    job.mark_completed(2.0 * epochs)
    return job


class TestConfig:
    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            PredictorConfig(backend="forest")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            PredictorConfig(history_size=0)
        with pytest.raises(ValueError):
            PredictorConfig(prior_epochs_remaining=0.0)


class TestColdStart:
    def test_prior_used_before_any_completion(self):
        predictor = ProgressPredictor(seed=0)
        job = make_running_job()
        mean, std = predictor.predict_epochs_remaining(job)
        assert mean == pytest.approx(predictor.config.prior_epochs_remaining)
        assert not predictor.is_fitted

    def test_progress_distribution_is_valid_beta(self):
        predictor = ProgressPredictor(seed=0)
        job = make_running_job(dataset_size=1000)
        job.advance(2500, 5.0)
        dist = predictor.progress_distribution(job)
        assert isinstance(dist, BetaDistribution)
        assert dist.alpha == pytest.approx(2.5)
        assert dist.beta >= 1.0

    def test_remaining_workload_of_fresh_job_uses_prior(self):
        predictor = ProgressPredictor(seed=0)
        job = make_running_job(dataset_size=1000)
        remaining = predictor.remaining_workload(job)
        assert remaining == pytest.approx(
            predictor.config.prior_epochs_remaining * 1000
        )


class TestOnlineFitting:
    @pytest.mark.parametrize("backend", ["gpr", "blr"])
    def test_fits_after_enough_completions(self, backend):
        predictor = ProgressPredictor(PredictorConfig(backend=backend), seed=0)
        for i in range(3):
            predictor.observe_completion(_completed_job(job_id=f"j{i}", epochs=5 + i))
        assert predictor.is_fitted
        assert predictor.fit_count >= 1

    def test_gpr_health_accumulates_across_refits(self):
        predictor = ProgressPredictor(seed=0)
        evaluations = []
        for i in range(4):
            predictor.observe_completion(_completed_job(job_id=f"j{i}", epochs=5 + i))
            evaluations.append(predictor.gpr_health.nll_evaluations)
        # Every completion from the second on refits a fresh model; the
        # predictor keeps the running total of their counters.
        assert predictor.fit_count == 3
        assert 0 == evaluations[0] < evaluations[1] < evaluations[2] < evaluations[3]
        assert predictor.gpr_health.optimizer_iterations > 0
        assert predictor.gpr_health.non_pd_evaluations == 0

    def test_refits_at_every_completion_once_enough_jobs(self):
        predictor = ProgressPredictor(PredictorConfig(min_completed_jobs_to_fit=3), seed=0)
        fits = []
        for i in range(5):
            predictor.observe_completion(_completed_job(job_id=f"j{i}", epochs=5 + i))
            fits.append(predictor.fit_count)
        assert fits == [0, 0, 1, 2, 3]

    def test_refit_timer_accumulates(self):
        predictor = ProgressPredictor(seed=0)
        for i in range(4):
            predictor.observe_completion(_completed_job(job_id=f"j{i}", epochs=6 + i % 3))
        assert predictor.fit_count == 3
        assert predictor.refit_seconds > 0.0

    def test_mean_epochs_remaining_matches_predict_mean(self):
        predictor = ProgressPredictor(seed=0)
        for i in range(4):
            predictor.observe_completion(_completed_job(job_id=f"j{i}", epochs=6 + i % 3))
        job = make_running_job(job_id="live", dataset_size=1000)
        job.advance(1500, 3.0)
        mean, _ = predictor.predict_epochs_remaining(job)
        assert predictor.mean_epochs_remaining(job) == mean

    def test_prediction_decreases_with_progress(self):
        predictor = ProgressPredictor(PredictorConfig(backend="blr"), seed=0)
        for i in range(4):
            predictor.observe_completion(_completed_job(job_id=f"j{i}", epochs=6))
        early = make_running_job(job_id="early", dataset_size=1000)
        early.advance(1000, 2.0)
        early.complete_epoch(2.0)
        late = make_running_job(job_id="late", dataset_size=1000)
        for e in range(5):
            late.advance(1000, 2.0)
            late.complete_epoch(2.0 * (e + 1))
        remaining_early, _ = predictor.predict_epochs_remaining(early)
        remaining_late, _ = predictor.predict_epochs_remaining(late)
        assert remaining_late < remaining_early

    def test_remaining_workload_formula(self):
        """Eq. 7: Y = Y_processed (1/ρ − 1)."""
        predictor = ProgressPredictor(seed=0)
        job = make_running_job(dataset_size=1000)
        job.advance(3000, 6.0)
        remaining = predictor.remaining_workload(job, progress=0.25)
        assert remaining == pytest.approx(3000 * 3.0)

    def test_remaining_time_divides_by_throughput(self):
        predictor = ProgressPredictor(seed=0)
        job = make_running_job(dataset_size=1000)
        job.advance(2000, 4.0)
        t = predictor.remaining_time(job, throughput=100.0, progress=0.5)
        assert t == pytest.approx(2000 / 100.0)

    def test_remaining_time_requires_positive_throughput(self):
        predictor = ProgressPredictor(seed=0)
        job = make_running_job()
        with pytest.raises(ValueError):
            predictor.remaining_time(job, throughput=0.0)

    def test_sample_progress_in_unit_interval(self):
        predictor = ProgressPredictor(seed=0)
        job = make_running_job(dataset_size=1000)
        job.advance(500, 1.0)
        for _ in range(20):
            assert 0.0 < predictor.sample_progress(job) < 1.0


class TestPredictionCurve:
    def test_prediction_curve_structure(self):
        predictor = ProgressPredictor(PredictorConfig(backend="blr"), seed=0)
        for i in range(3):
            predictor.observe_completion(_completed_job(job_id=f"j{i}"))
        job = make_running_job(dataset_size=1000)
        job.advance(2000, 4.0)
        curve = predictor.prediction_curve(job, sample_points=20)
        assert set(curve) >= {"samples_processed", "mean", "ci_low", "ci_high"}
        assert len(curve["mean"]) == 20
        assert np.all(curve["ci_low"] <= curve["mean"] + 1e-9)
        assert np.all(curve["mean"] <= curve["ci_high"] + 1e-9)

    def test_mean_progress_increases_with_processed_samples(self):
        predictor = ProgressPredictor(seed=0)
        job = make_running_job(dataset_size=1000)
        job.advance(3000, 4.0)
        curve = predictor.prediction_curve(job, sample_points=15)
        assert curve["mean"][-1] > curve["mean"][0]

"""Tests for repro.prediction.predictor."""

import numpy as np
import pytest

from repro.prediction.beta import BetaDistribution
from repro.prediction.features import job_features
from repro.prediction.gpr import GaussianProcessRegression, rbf_kernel
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
        prior = predictor.config.prior_epochs_remaining
        assert predictor.progress_distribution(job).beta == pytest.approx(max(1.0, prior))
        assert predictor.fit_count == 0

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
        dists = predictor.progress_distributions({"early": early, "late": late})
        assert dists["late"].beta < dists["early"].beta

    def test_remaining_workload_formula(self):
        """Eq. 7: Y = Y_processed (1/ρ − 1)."""
        predictor = ProgressPredictor(seed=0)
        job = make_running_job(dataset_size=1000)
        job.advance(3000, 6.0)
        remaining = predictor.remaining_workload(job, progress=0.25)
        assert remaining == pytest.approx(3000 * 3.0)

def _live_jobs(count=12):
    """Running jobs at varied dataset sizes and progress, keyed by id."""
    jobs = {}
    for i in range(count):
        job = make_running_job(job_id=f"live-{i}", dataset_size=500 + 250 * i)
        for e in range(i % 4):
            job.advance(job.dataset_size, 2.0)
            job.complete_epoch(2.0 * (e + 1))
        job.advance(37 * (i + 1), 1.0)
        jobs[job.job_id] = job
    return jobs


def _fitted(backend):
    predictor = ProgressPredictor(PredictorConfig(backend=backend), seed=0)
    for i in range(5):
        predictor.observe_completion(
            _completed_job(job_id=f"j{i}", epochs=6 + 2 * i, dataset_size=600 + 200 * i)
        )
    assert predictor.fit_count > 0
    return predictor


#: A batched mean sums its terms in another order than a one-row call
#: (BLAS picks other kernels for other shapes), so the two may differ by
#: rounding relative to the terms, not to their sum: GPR fits at the
#: noise bound make the sum up to ~10⁷ times smaller than its terms.
#: The reordering bound at n = 128 training points is n·ε ≈ 2.8e-14.
BATCH_TERM_RTOL = 1e-12


def _term_scale(model, X):
    """Per row, the absolute sum of the terms of the predictive mean."""
    if isinstance(model, GaussianProcessRegression):
        K = rbf_kernel(X, model.X_train_, model.signal_variance, model.length_scale)
        return np.abs(K) @ np.abs(model._alpha) * model._y_scale + abs(model._y_mean)
    return np.abs(model._design(X)) @ np.abs(model.mean_)


class TestBatchedPredictions:
    @pytest.mark.parametrize("backend", ["gpr", "blr", None])
    def test_batch_matches_per_job_distributions(self, backend):
        predictor = ProgressPredictor(seed=0) if backend is None else _fitted(backend)
        jobs = _live_jobs()
        batch = predictor.progress_distributions(jobs)
        assert list(batch) == list(jobs)
        if backend is None:
            tolerance = np.zeros(len(jobs))
        else:
            X = np.array([job_features(job) for job in jobs.values()])
            tolerance = BATCH_TERM_RTOL * _term_scale(
                predictor._model, predictor._scaler.transform(X)
            )
        for (job_id, job), atol in zip(jobs.items(), tolerance):
            single = predictor.progress_distribution(job)
            assert batch[job_id].alpha == single.alpha
            assert abs(batch[job_id].beta - single.beta) <= atol
        if backend is None:
            prior = predictor.config.prior_epochs_remaining
            assert {dist.beta for dist in batch.values()} == {prior}
        else:
            # The comparison is not vacuous: β is not the clamp everywhere.
            assert sum(dist.beta > 1.0 for dist in batch.values()) >= len(jobs) // 2

    @pytest.mark.parametrize("backend", ["gpr", "blr"])
    def test_one_job_batch_is_the_single_row_mean(self, backend):
        predictor = _fitted(backend)
        for job in _live_jobs().values():
            x = np.atleast_2d(predictor._scaler.transform(job_features(job)))
            mean = max(float(predictor._model.predict(x)[0]), 0.0)
            assert predictor.progress_distribution(job).beta == max(1.0, mean)

    @pytest.mark.parametrize("backend", ["gpr", "blr", None])
    def test_empty_batch(self, backend):
        predictor = ProgressPredictor(seed=0) if backend is None else _fitted(backend)
        assert predictor.progress_distributions({}) == {}

    def test_one_model_predict_per_batch(self, monkeypatch):
        predictor = _fitted("gpr")
        calls = []
        original = predictor._model.predict
        monkeypatch.setattr(
            predictor._model,
            "predict",
            lambda X, **kw: calls.append(np.shape(X)) or original(X, **kw),
        )
        predictor.progress_distributions(_live_jobs())
        assert calls == [(12, 5)]


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

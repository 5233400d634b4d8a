"""Tests for repro.core.batch_limit (the R_j policies of §3.3.2)."""

import pytest

from repro.core.batch_limit import BatchLimitConfig, BatchSizeLimiter
from tests.conftest import make_job, make_running_job


class TestConfig:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            BatchLimitConfig(min_batch=0)
        with pytest.raises(ValueError):
            BatchLimitConfig(sigma=0.0)
        with pytest.raises(ValueError):
            BatchLimitConfig(max_batch_multiplier=0.0)


class TestStartPolicy:
    def test_limit_fits_single_gpu(self):
        limiter = BatchSizeLimiter()
        job = make_job(base_batch=512, requested_gpus=4, dataset_size=20_000)
        limit = limiter.on_job_arrival(job)
        assert limit <= job.spec.max_local_batch
        assert limiter.limits()[job.job_id] == limit

class TestScaleUpPolicy:
    def test_doubles_each_epoch_when_short(self):
        limiter = BatchSizeLimiter(BatchLimitConfig(sigma=1e-9))
        job = make_running_job(base_batch=128, dataset_size=20_000)
        limiter.on_job_arrival(job)
        start = limiter.limits()[job.job_id]
        job.epochs_completed = 1
        first = limiter.on_epoch_end(job, executed_time=10.0)
        job.epochs_completed = 2
        second = limiter.on_epoch_end(job, executed_time=20.0)
        assert first == 2 * start
        assert second == 4 * start

    def test_warmup_blocks_growth(self):
        limiter = BatchSizeLimiter(BatchLimitConfig(warmup_epochs=3, sigma=1e-9))
        job = make_running_job(base_batch=128, dataset_size=20_000)
        limiter.on_job_arrival(job)
        job.epochs_completed = 1
        assert limiter.on_epoch_end(job, 5.0) == limiter.limits()[job.job_id]

    def test_cap_at_max_multiplier(self):
        limiter = BatchSizeLimiter(BatchLimitConfig(sigma=1e-9, max_batch_multiplier=4.0))
        job = make_running_job(base_batch=128, dataset_size=20_000)
        limiter.on_job_arrival(job)
        job.epochs_completed = 1
        for _ in range(10):
            limit = limiter.on_epoch_end(job, 1.0)
        assert limit == 4 * 128


class TestScaleDownPolicy:
    def test_long_jobs_are_clawed_back_under_contention(self):
        limiter = BatchSizeLimiter(BatchLimitConfig(sigma=0.01))
        job = make_running_job(base_batch=128, dataset_size=20_000)
        limiter.on_job_arrival(job)
        job.epochs_completed = 1
        grown = limiter.on_epoch_end(job, executed_time=10.0)      # short: doubles
        shrunk = limiter.on_epoch_end(job, executed_time=1000.0)   # long: penalised
        assert grown > 128
        assert shrunk < grown

    def test_never_below_submitted_batch(self):
        limiter = BatchSizeLimiter(BatchLimitConfig(sigma=1.0))
        job = make_running_job(base_batch=128, dataset_size=20_000)
        limiter.on_job_arrival(job)
        job.epochs_completed = 1
        for _ in range(20):
            limit = limiter.on_epoch_end(job, executed_time=10_000.0)
        assert limit >= 128

    def test_uncontended_cluster_skips_penalty(self):
        limiter = BatchSizeLimiter(BatchLimitConfig(sigma=0.01))
        job = make_running_job(base_batch=128, dataset_size=20_000)
        limiter.on_job_arrival(job)
        job.epochs_completed = 1
        limit = limiter.on_epoch_end(job, executed_time=10_000.0, contended=False)
        assert limit == 2 * 128


class TestResumePolicy:
    def test_rejection_halves_limit(self):
        limiter = BatchSizeLimiter(BatchLimitConfig(sigma=1e-9))
        job = make_running_job(base_batch=128, dataset_size=20_000)
        limiter.on_job_arrival(job)
        job.epochs_completed = 1
        for _ in range(4):
            limiter.on_epoch_end(job, 1.0)
        grown = limiter.limits()[job.job_id]
        halved = limiter.on_schedule_rejection(job)
        assert halved == pytest.approx(grown / 2, abs=1)

    def test_rejection_floor(self):
        limiter = BatchSizeLimiter()
        job = make_job(base_batch=128)
        limiter.on_job_arrival(job)
        for _ in range(10):
            limit = limiter.on_schedule_rejection(job)
        assert limit >= min(128, job.spec.max_local_batch)

    def test_preemption_keeps_limit(self):
        limiter = BatchSizeLimiter()
        job = make_job(base_batch=128)
        limiter.on_job_arrival(job)
        assert limiter.on_preemption(job) == limiter.limits()[job.job_id]


class TestArrivalRate:
    def test_rate_estimated_from_arrivals(self):
        limiter = BatchSizeLimiter()
        for i, t in enumerate([0.0, 10.0, 20.0, 30.0]):
            job = make_job(job_id=f"j{i}", arrival_time=t)
            limiter.on_job_arrival(job)
        assert limiter.arrival_rate == pytest.approx(0.1)

    def test_rate_zero_with_single_arrival(self):
        limiter = BatchSizeLimiter()
        limiter.on_job_arrival(make_job())
        assert limiter.arrival_rate == 0.0

    def test_forget(self):
        limiter = BatchSizeLimiter()
        job = make_job()
        limiter.on_job_arrival(job)
        limiter.forget(job.job_id)
        with pytest.raises(KeyError):
            limiter.limits()[job.job_id]

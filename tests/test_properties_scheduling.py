"""Property-based tests of scheduling-layer invariants (hypothesis).

These complement ``test_properties.py`` (data-structure level) with
invariants of the policy layer: the batch-size limiter never leaves its
legal range, the fill operator never violates Eq. 4's one-job-per-GPU
constraint or device-memory bounds, and derived allocations always stay
consistent with their genome.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch_limit import BatchLimitConfig, BatchSizeLimiter
from repro.core.schedule import IDLE, Schedule
from tests._core_helpers import make_context, make_jobs
from tests._evolution_oracle import fill_idle_gpus, refresh, uniform_mutation
from tests.conftest import make_job


# --- batch-size limiter ---------------------------------------------------------------------


@st.composite
def limiter_scenarios(draw):
    base_batch = draw(st.sampled_from([32, 64, 128, 256]))
    dataset_size = draw(st.sampled_from([2_000, 10_000, 40_000]))
    epochs = draw(st.integers(min_value=1, max_value=30))
    executed_times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
            min_size=epochs,
            max_size=epochs,
        )
    )
    contended = draw(st.lists(st.booleans(), min_size=epochs, max_size=epochs))
    rejections = draw(st.integers(min_value=0, max_value=5))
    return base_batch, dataset_size, executed_times, contended, rejections


class TestLimiterProperties:
    @settings(max_examples=60, deadline=None)
    @given(limiter_scenarios())
    def test_limit_always_within_legal_range(self, scenario):
        base_batch, dataset_size, executed_times, contended, rejections = scenario
        config = BatchLimitConfig()
        limiter = BatchSizeLimiter(config)
        job = make_job(
            job_id="p", base_batch=base_batch, dataset_size=dataset_size, requested_gpus=1
        )
        job.start_running(0.0, [0], [min(base_batch, job.spec.max_local_batch)])
        limiter.on_job_arrival(job)
        upper = max(1, min(int(config.max_batch_multiplier * base_batch), dataset_size))
        for epoch, (t, c) in enumerate(zip(executed_times, contended), start=1):
            job.epochs_completed = epoch
            limit = limiter.on_epoch_end(job, executed_time=t, contended=c)
            assert config.min_batch <= limit <= upper
        for _ in range(rejections):
            limit = limiter.on_schedule_rejection(job)
            assert config.min_batch <= limit <= upper

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=20))
    def test_uncontended_growth_is_monotone_until_cap(self, epochs):
        limiter = BatchSizeLimiter(BatchLimitConfig(sigma=1e-9))
        job = make_job(job_id="p", base_batch=64, dataset_size=50_000)
        job.start_running(0.0, [0], [64])
        limiter.on_job_arrival(job)
        previous = limiter.limit("p")
        for epoch in range(1, epochs + 1):
            job.epochs_completed = epoch
            current = limiter.on_epoch_end(job, executed_time=10.0 * epoch, contended=False)
            assert current >= previous
            previous = current


# --- operators ----------------------------------------------------------------------------------


@st.composite
def operator_scenarios(draw):
    num_jobs = draw(st.integers(min_value=1, max_value=5))
    num_gpus = draw(st.sampled_from([4, 8, 16]))
    genome = draw(
        st.lists(
            st.integers(min_value=IDLE, max_value=num_jobs - 1),
            min_size=num_gpus,
            max_size=num_gpus,
        )
    )
    limit_multiplier = draw(st.sampled_from([1, 2, 8, 32]))
    mutation_rate = draw(st.floats(min_value=0.0, max_value=1.0))
    return num_jobs, num_gpus, genome, limit_multiplier, mutation_rate


def _context_for(num_jobs, num_gpus, limit_multiplier, seed=0):
    jobs = make_jobs(num_jobs)
    limits = {j: job.spec.base_batch * limit_multiplier for j, job in jobs.items()}
    return make_context(jobs, num_gpus=num_gpus, limits=limits, seed=seed)


class TestOperatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(operator_scenarios())
    def test_refresh_and_fill_respect_constraints(self, scenario):
        num_jobs, num_gpus, genome, limit_multiplier, _ = scenario
        ctx = _context_for(num_jobs, num_gpus, limit_multiplier)
        schedule = Schedule(roster=ctx.roster, genome=np.asarray(genome, dtype=np.int64))
        refreshed = refresh(schedule, ctx)
        filled = fill_idle_gpus(refreshed, ctx)
        # One job per GPU is structural; counts never exceed desired or cluster.
        for job_id, count in filled.gpu_counts().items():
            assert 1 <= count <= min(ctx.desired_gpus(job_id), num_gpus)
        # Materialised allocations respect device memory limits.
        allocation = filled.to_allocation(ctx.jobs, ctx.limits)
        allocation.validate(
            num_gpus,
            max_local_batch={j: job.spec.max_local_batch for j, job in ctx.jobs.items()},
        )
        # If anything is waiting, the cluster is saturated up to desired sizes.
        if filled.waiting_jobs():
            for job_id in filled.placed_jobs():
                assert filled.gpu_count(job_id) <= ctx.desired_gpus(job_id)

    @settings(max_examples=40, deadline=None)
    @given(operator_scenarios())
    def test_mutation_output_is_executable(self, scenario):
        num_jobs, num_gpus, genome, limit_multiplier, mutation_rate = scenario
        ctx = _context_for(num_jobs, num_gpus, limit_multiplier, seed=1)
        schedule = Schedule(roster=ctx.roster, genome=np.asarray(genome, dtype=np.int64))
        mutated = uniform_mutation(fill_idle_gpus(schedule, ctx), ctx, mutation_rate)
        allocation = mutated.to_allocation(ctx.jobs, ctx.limits)
        allocation.validate(
            num_gpus,
            max_local_batch={j: job.spec.max_local_batch for j, job in ctx.jobs.items()},
        )
        # Every placed job's derived batch respects its limit and dataset.
        for job_id in mutated.placed_jobs():
            job = ctx.jobs[job_id]
            batch = mutated.global_batch(job, ctx.limit(job_id))
            assert batch <= max(ctx.limit(job_id), mutated.gpu_count(job_id))
            assert batch <= job.dataset_size

"""Tests for Eq. 8 (SRUF) and Algorithm 1.

Eq. 8 is checked on the production scoring
(:func:`~repro.core.scoring_incremental.score_decomposition`, the
kernel's scoring step); Algorithm 1's stand-alone selection lives only
in the scalar reference, ``tests/_evolution_oracle.py``, whose parity
with the kernel ``test_core_scoring_vectorized.py`` pins.
"""

import numpy as np
import pytest

import tests._evolution_oracle as oracle
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import sample_progress
from repro.core.scoring_incremental import build_decomposition, score_decomposition
from tests._core_helpers import make_context, make_jobs
from tests._evolution_oracle import schedule_key


def _scores(ctx, schedules, progress):
    """Eq. 8 of every schedule, as the generation kernel computes it."""
    genomes = np.stack([schedule.genome for schedule in schedules])
    decomp = build_decomposition(genomes, len(ctx.roster), ctx.throughput_table.node_of)
    return score_decomposition(decomp, ctx.roster, ctx.jobs, progress, ctx.throughput_table)


@pytest.fixture
def context():
    jobs = make_jobs(3)
    # Give jobs some processed history so Eq. 8 has non-zero terms.
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i], [64])
        job.advance(2000 * (i + 1), 10.0)
    return make_context(jobs, num_gpus=4)


def _schedule(context, counts):
    """Build a schedule giving counts[i] GPUs to job-i."""
    genome = np.full(4, IDLE, dtype=np.int64)
    cursor = 0
    for idx, count in enumerate(counts):
        for _ in range(count):
            genome[cursor] = idx
            cursor += 1
    return Schedule(roster=context.roster, genome=genome)


class TestSampleProgress:
    def test_one_sample_per_job(self, context):
        samples = sample_progress(context.jobs, context.distributions, rng=0)
        assert set(samples) == set(context.jobs)
        assert all(0 < v < 1 for v in samples.values())

    def test_missing_distribution_uses_uniform(self, context):
        samples = sample_progress(context.jobs, {}, rng=0)
        assert len(samples) == len(context.jobs)


class TestCandidateScore:
    def test_score_is_finite_and_positive(self, context):
        schedule = _schedule(context, [2, 1, 1])
        progress = {j: 0.5 for j in context.roster}
        (score,) = _scores(context, [schedule], progress)
        assert np.isfinite(score)
        assert score > 0

    def test_new_jobs_cost_nothing(self, context):
        """Eq. 8: a job with no processed samples contributes zero."""
        fresh_jobs = make_jobs(2)
        ctx = make_context(fresh_jobs, num_gpus=4)
        schedule = Schedule(roster=ctx.roster, genome=np.array([0, 1, IDLE, IDLE]))
        (score,) = _scores(ctx, [schedule], {j: 0.5 for j in ctx.roster})
        assert score == 0.0

    def test_lower_progress_means_higher_score(self, context):
        schedule = _schedule(context, [2, 1, 1])
        optimistic = {j: 0.9 for j in context.roster}
        pessimistic = {j: 0.1 for j in context.roster}
        assert _scores(context, [schedule], pessimistic) > _scores(
            context, [schedule], optimistic
        )

    def test_score_candidates_vectorises(self, context):
        schedules = [_schedule(context, [2, 1, 1]), _schedule(context, [1, 2, 1])]
        progress = {j: 0.5 for j in context.roster}
        scores = _scores(context, schedules, progress)
        assert scores.shape == (2,)


class TestProbabilitySample:
    def test_returns_best_candidate(self, context):
        good = _schedule(context, [2, 1, 1])
        # A candidate that leaves the heaviest job unscheduled scores lower
        # utilisation but probability_sample only compares what is given.
        candidates = [good, _schedule(context, [1, 1, 1])]
        best, score = oracle.probability_sample(
            candidates, context.jobs, context.distributions, context.throughput_table, rng=1
        )
        assert best in candidates
        assert np.isfinite(score)

    def test_empty_candidates_rejected(self, context):
        with pytest.raises(ValueError):
            oracle.probability_sample(
                [], context.jobs, context.distributions, context.throughput_table
            )


class TestSelectTopK:
    def test_returns_k_sorted_unique(self, context):
        candidates = [
            _schedule(context, [2, 1, 1]),
            _schedule(context, [1, 2, 1]),
            _schedule(context, [1, 1, 2]),
            _schedule(context, [2, 1, 1]),  # duplicate genome
        ]
        survivors = oracle.select_top_k(
            candidates, context.jobs, context.distributions, context.throughput_table, k=3, rng=2
        )
        assert len(survivors) == 3
        scores = [s for _, s in survivors]
        assert scores == sorted(scores)
        keys = {schedule_key(sched) for sched, _ in survivors}
        assert len(keys) == 3

    def test_k_larger_than_pool(self, context):
        candidates = [_schedule(context, [2, 1, 1])]
        survivors = oracle.select_top_k(
            candidates, context.jobs, context.distributions, context.throughput_table, k=5, rng=2
        )
        assert len(survivors) == 1

    def test_invalid_k(self, context):
        with pytest.raises(ValueError):
            oracle.select_top_k(
                [], context.jobs, context.distributions, context.throughput_table, k=0
            )

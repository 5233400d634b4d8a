"""Parity tests: the kernel's population scoring vs the scalar oracle.

The kernel scores a whole pool at once (:func:`score_decomposition` over
:func:`build_decomposition`, i.e. :func:`score_count_matrix`) and
selects by a stable argsort over first-seen distinct rows.  It must be
*bit-compatible* with the oracle's one-candidate-at-a-time Eq. 8
(``tests/_evolution_oracle.py``) on shared progress samples: identical
scores, identical argmin, identical top-K selection order — across
randomised rosters, genomes with idle GPUs, zero-progress jobs and
zero-throughput (infinite-score) candidates.
"""

import numpy as np
import pytest

import tests._evolution_oracle as oracle
from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution_batched import first_seen_rows
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import (
    population_gpu_counts,
    sample_progress,
    score_count_matrix,
)
from repro.core.scoring_incremental import build_decomposition, score_decomposition
from repro.jobs.throughput import ThroughputModel, ThroughputTable
from repro.prediction.beta import SAMPLE_EPS, BetaDistribution
from tests._core_helpers import make_jobs, table_from_matrix
from tests._evolution_oracle import schedule_key


def _workload(num_gpus, num_jobs, seed, idle_fraction=0.2, fresh_fraction=0.3):
    """Random jobs (some with zero progress), candidates (some idle GPUs)."""
    rng = np.random.default_rng(seed)
    jobs = make_jobs(num_jobs)
    for i, (job_id, job) in enumerate(jobs.items()):
        if rng.random() < fresh_fraction:
            continue  # never started: samples_processed == 0
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(int(rng.integers(500, 5000)), 10.0)
    topology = make_longhorn_cluster(num_gpus)
    model = ThroughputModel(topology)
    limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    candidates = []
    for _ in range(2 * num_gpus):
        genome = rng.integers(0, num_jobs, size=num_gpus).astype(np.int64)
        genome[rng.random(num_gpus) < idle_fraction] = IDLE
        candidates.append(oracle.reorder(Schedule(roster=roster, genome=genome)))
    table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)
    progress = {
        job_id: float(rho)
        for job_id, rho in zip(roster, rng.uniform(0.01, 0.99, size=len(roster)))
    }
    return jobs, candidates, table, progress


def _kernel_scores(candidates, jobs, progress, table):
    """Eq. 8 for every candidate, as the kernel's selection computes it."""
    genomes = np.stack([c.genome for c in candidates])
    decomp = build_decomposition(genomes, len(table.roster), table.node_of)
    return score_decomposition(decomp, table.roster, jobs, progress, table)


def _kernel_top_k(candidates, jobs, distributions, table, k, rng):
    """The kernel's selection: dedup, shared samples, stable best-K order."""
    genomes = np.stack([c.genome for c in candidates])
    pool = genomes[first_seen_rows(genomes)]
    progress = sample_progress(jobs, distributions, np.random.default_rng(rng))
    decomp = build_decomposition(pool, len(table.roster), table.node_of)
    scores = score_decomposition(decomp, table.roster, jobs, progress, table)
    order = np.argsort(scores, kind="stable")[:k]
    return pool[order], scores[order]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("num_gpus,num_jobs", [(8, 3), (16, 7), (16, 20)])
def test_scores_bit_identical(num_gpus, num_jobs, seed):
    jobs, candidates, table, progress = _workload(num_gpus, num_jobs, seed)
    scalar = oracle.score_candidates(candidates, jobs, progress, table)
    vector = _kernel_scores(candidates, jobs, progress, table)
    assert np.array_equal(scalar, vector)
    assert int(np.argmin(scalar)) == int(np.argmin(vector))


def test_scores_bit_identical_at_benchmark_scale():
    """The benchmark-scale probe: 64 GPUs, 50 busy jobs, K = 64."""
    jobs, candidates, table, progress = _workload(
        64, 50, seed=1, idle_fraction=0.1, fresh_fraction=0.0
    )
    scalar = oracle.score_candidates(candidates[:64], jobs, progress, table)
    assert np.array_equal(scalar, _kernel_scores(candidates[:64], jobs, progress, table))
    assert table.model_calls <= len(table.roster) * table.node_of.size * 2


@pytest.mark.parametrize("seed", range(3))
def test_top_k_order_identical(seed):
    jobs, candidates, table, _ = _workload(16, 6, seed)
    scalar_survivors = oracle.select_top_k(candidates, jobs, {}, table, k=8, rng=seed)
    genomes, scores = _kernel_top_k(candidates, jobs, {}, table, k=8, rng=seed)
    assert np.array_equal(np.stack([s.genome for s, _ in scalar_survivors]), genomes)
    assert [score for _, score in scalar_survivors] == scores.tolist()


def test_probability_sample_identical():
    jobs, candidates, table, _ = _workload(8, 4, seed=11)
    distributions = {
        job_id: BetaDistribution(2.0, 5.0) for job_id in sorted(jobs)
    }
    best_scalar, score_scalar = oracle.probability_sample(
        candidates, jobs, distributions, table, rng=3
    )
    progress = sample_progress(jobs, distributions, np.random.default_rng(3))
    vector = _kernel_scores(candidates, jobs, progress, table)
    best = int(np.argmin(vector))
    assert schedule_key(best_scalar) == schedule_key(candidates[best])
    assert score_scalar == vector[best]


def test_zero_throughput_candidates_score_inf():
    """A placed job with history but zero throughput makes the score inf."""
    jobs = make_jobs(2)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i], [64])
        job.advance(1000, 5.0)
    roster = tuple(sorted(jobs))
    matrix = np.zeros((2, 5))
    matrix[0, :] = [0.0, 100.0, 150.0, 180.0, 200.0]  # job-0 is healthy
    table = table_from_matrix(roster, matrix)  # job-1 never runs
    progress = {job_id: 0.5 for job_id in roster}
    both = Schedule(roster=roster, genome=np.array([0, 0, 1, 1]))
    only_healthy = Schedule(roster=roster, genome=np.array([0, 0, 0, IDLE]))
    scalar = oracle.score_candidates([both, only_healthy], jobs, progress, table)
    vector = _kernel_scores([both, only_healthy], jobs, progress, table)
    assert np.array_equal(scalar, vector)
    assert np.isinf(vector[0])
    assert np.isfinite(vector[1])
    # Selection must still rank the finite candidate first.
    genomes, _ = _kernel_top_k([both, only_healthy], jobs, {}, table, k=2, rng=0)
    assert np.array_equal(genomes[0], only_healthy.genome)


def test_zero_progress_jobs_cost_nothing():
    """Eq. 8: brand-new jobs contribute zero in both implementations."""
    jobs = make_jobs(3)  # never started: samples_processed == 0
    num_gpus = 8
    topology = make_longhorn_cluster(num_gpus)
    model = ThroughputModel(topology)
    limits = {job_id: job.spec.base_batch for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)
    candidate = Schedule(
        roster=roster, genome=np.array([0, 1, 2, IDLE, IDLE, IDLE, IDLE, IDLE])
    )
    progress = {job_id: 0.5 for job_id in roster}
    vector = _kernel_scores([candidate], jobs, progress, table)
    scalar = oracle.score_candidates([candidate], jobs, progress, table)
    assert np.array_equal(scalar, vector)
    assert vector[0] == 0.0


def test_population_gpu_counts_matches_schedule_queries():
    rng = np.random.default_rng(7)
    jobs = make_jobs(5)
    roster = tuple(sorted(jobs))
    candidates = []
    for _ in range(10):
        genome = rng.integers(-1, 5, size=12).astype(np.int64)
        candidates.append(Schedule(roster=roster, genome=genome))
    counts = population_gpu_counts(np.stack([c.genome for c in candidates]), len(roster))
    for k, candidate in enumerate(candidates):
        for j, job_id in enumerate(roster):
            assert counts[k, j] == candidate.gpu_count(job_id)


def test_empty_roster_and_empty_population():
    counts = population_gpu_counts(np.full((3, 4), IDLE, dtype=np.int64), 0)
    assert counts.shape == (3, 0)
    table = table_from_matrix((), np.zeros((0, 5)))
    assert score_count_matrix(counts, (), {}, {}, table).shape == (3,)
    empty = np.zeros((0, 0), dtype=np.int64)
    assert score_count_matrix(empty, (), {}, {}, table).shape == (0,)


def test_sample_progress_matches_sequential_scalar_draws():
    """One vectorised RNG call must reproduce the per-job scalar stream."""
    jobs = make_jobs(6)
    distributions = {
        job_id: BetaDistribution(1.0 + i, 2.0 + 3 * i)
        for i, job_id in enumerate(sorted(jobs))
    }
    # Drop some jobs from the distribution map to exercise the uniform prior.
    del distributions["job-2"], distributions["job-4"]
    batched = sample_progress(jobs, distributions, rng=123)
    reference_rng = np.random.default_rng(123)
    for job_id in jobs:
        dist = distributions.get(job_id, BetaDistribution(1.0, 1.0))
        draw = float(reference_rng.beta(dist.alpha, dist.beta))
        assert batched[job_id] == float(np.clip(draw, SAMPLE_EPS, 1.0 - SAMPLE_EPS))

"""Candidate scoring: the SRUF objective and Algorithm 1.

The score of a candidate schedule is the total *remaining utilisation*
of its running jobs (Eq. 8):

``score(S) = Σ_j  (Y_processed_j · c_j / X_j) · (1/ρ_j − 1)``

where ``c_j`` and ``X_j`` are the GPU count and throughput the candidate
gives job ``j`` and ``ρ_j`` is a training-progress sample drawn from the
job's predictive Beta distribution.  Algorithm 1 draws one ρ per job
(:func:`sample_progress`), scores every candidate with those shared
samples, and picks the smallest score; selection keeps the best K
candidates the same way.

:func:`score_count_matrix` evaluates Eq. 8 for a whole population at
once from its ``(K, num_jobs)`` GPU-count matrix and placement-locality
flags, gathering throughputs from a
:class:`~repro.jobs.throughput.ThroughputTable`.  The generation kernel
(:mod:`repro.core.evolution_batched`) keeps those inputs up to date
through every operator (:mod:`repro.core.scoring_incremental`) and
scores each generation's pool through this one expression.  Its float
evaluation order must not be refactored: FP addition is not
associative, and the parity suites pin the kernel's scores bit for bit
against the scalar reference in ``tests/_evolution_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.schedule import IDLE
from repro.jobs.job import Job
from repro.jobs.throughput import ThroughputTable
from repro.prediction.beta import (
    SAMPLE_EPS,
    BetaDistribution,
    UNIFORM_PRIOR,
    sample_many,
)
from repro.utils.rng import SeedLike, as_generator


def sample_progress(
    jobs: Mapping[str, Job],
    distributions: Mapping[str, BetaDistribution],
    rng: SeedLike = None,
) -> Dict[str, float]:
    """Draw one progress sample ρ_j per job (line 2 of Algorithm 1).

    All samples come from a single vectorised RNG call; jobs without a
    fitted distribution fall back to the shared uniform prior.
    """
    rng = as_generator(rng)
    job_ids = list(jobs)
    dists = [distributions.get(job_id) or UNIFORM_PRIOR for job_id in job_ids]
    draws = sample_many(dists, rng)
    return {job_id: float(draw) for job_id, draw in zip(job_ids, draws)}


def population_gpu_counts(genomes: np.ndarray, num_jobs: int) -> np.ndarray:
    """Per-candidate per-job GPU counts from a stacked genome matrix.

    ``genomes`` has shape ``(K, num_gpus)`` with values in
    ``{IDLE} ∪ [0, num_jobs)``; the result has shape ``(K, num_jobs)``.
    A single flattened ``bincount`` covers the whole population.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    if genomes.ndim != 2:
        raise ValueError("genomes must be a (K, num_gpus) matrix")
    num_candidates = genomes.shape[0]
    if num_jobs == 0:
        return np.zeros((num_candidates, 0), dtype=np.int64)
    placed = genomes != IDLE
    rows = np.broadcast_to(
        np.arange(num_candidates, dtype=np.int64)[:, None], genomes.shape
    )
    flat = rows[placed] * num_jobs + genomes[placed]
    counts = np.bincount(flat, minlength=num_candidates * num_jobs)
    return counts.reshape(num_candidates, num_jobs)


def progress_vector(
    roster: Sequence[str], progress: Mapping[str, float]
) -> np.ndarray:
    """Clipped ρ_j per roster job (missing jobs use the 0.5 default)."""
    values = np.array(
        [progress.get(job_id, 0.5) for job_id in roster], dtype=float
    )
    return np.clip(values, SAMPLE_EPS, 1.0 - SAMPLE_EPS)


def score_count_matrix(
    counts: np.ndarray,
    roster: Sequence[str],
    jobs: Mapping[str, Job],
    progress: Mapping[str, float],
    table: ThroughputTable,
    crosses_nodes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. 8 from a precomputed ``(K, num_jobs)`` GPU-count matrix.

    ``crosses_nodes`` carries per-(candidate, job) placement locality;
    ``None`` assumes canonical packed placements.  This is the scoring
    step of :func:`repro.core.evolution_batched.run_generation` (through
    :func:`repro.core.scoring_incremental.score_decomposition`), which
    already holds counts and crossings for its de-duplicated pool.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if len(roster) == 0:
        return np.zeros(counts.shape[0], dtype=float)
    processed = np.array(
        [
            jobs[job_id].samples_processed if job_id in jobs else 0.0
            for job_id in roster
        ],
        dtype=float,
    )
    rho = progress_vector(roster, progress)
    # Remaining workload Y_j = Y_processed · (1/ρ − 1); new jobs cost zero.
    weights = np.where(processed > 0, processed * (1.0 / rho - 1.0), 0.0)
    throughputs = table.lookup(counts, crosses_nodes)
    active = (counts > 0) & (processed > 0)[None, :]
    safe = np.where(throughputs > 0, throughputs, 1.0)
    terms = np.where(active, (weights[None, :] * counts) / safe, 0.0)
    terms = np.where(active & (throughputs <= 0), np.inf, terms)
    return terms.sum(axis=1)

"""The cluster snapshot the evolution operators of §3.2.2 work against.

The operators themselves — refresh, uniform crossover, uniform mutation
and reorder — run as one generation over the population's genome
matrix in :mod:`repro.core.evolution_batched`.  This module holds the
:class:`EvolutionContext` they read: the job roster, the batch-size
limits ``R_j``, the predicted progress distributions and the
per-invocation throughput table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

import numpy as np

from repro.jobs.job import Job
from repro.jobs.throughput import ThroughputTable
from repro.prediction.beta import BetaDistribution
from repro.utils.rng import as_generator


@dataclass
class EvolutionContext:
    """Everything the operators need to know about the current cluster state.

    Attributes
    ----------
    jobs:
        Active (non-completed) jobs keyed by id.
    roster:
        The job ids candidate genomes index into (a fixed ordering of
        ``jobs``).
    limits:
        Current batch-size limits ``R_j``.
    distributions:
        Predictive progress distributions per job.
    remaining_workload:
        Expected remaining samples ``Y_j`` per job (predictor mean).
    executed_time:
        ``T_processed`` per job, used by refresh to take GPUs from the
        longest-running jobs and by the scale-down policy.
    num_gpus:
        Cluster size.
    throughput_table:
        The per-invocation :class:`~repro.jobs.throughput.ThroughputTable`
        ``X_j(c)`` over ``roster``; the fill and Eq. 8 scoring gather
        every throughput from it.
    never_started:
        Ids of jobs that have not yet run at all (the "new jobs" the
        refresh operation must serve first).
    rng:
        Random generator driving all stochastic choices.
    """

    jobs: Dict[str, Job]
    roster: Tuple[str, ...]
    limits: Dict[str, int]
    distributions: Dict[str, BetaDistribution]
    remaining_workload: Dict[str, float]
    executed_time: Dict[str, float]
    num_gpus: int
    throughput_table: ThroughputTable
    never_started: Set[str] = field(default_factory=set)
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        self.rng = as_generator(self.rng)
        if self.throughput_table is None:
            raise ValueError("EvolutionContext needs a throughput_table")
        missing = [j for j in self.roster if j not in self.jobs]
        if missing:
            raise ValueError(f"roster references unknown jobs: {missing}")

    # -- derived helpers -------------------------------------------------------------------------

    def limit(self, job_id: str) -> int:
        """Batch-size limit of ``job_id`` (defaults to its submitted batch)."""
        job = self.jobs[job_id]
        return int(self.limits.get(job_id, job.spec.base_batch))

    def preferred_local_batch(self, job_id: str) -> int:
        """Per-GPU batch the job was tuned for (bounded by device memory)."""
        job = self.jobs[job_id]
        tuned = max(1, job.spec.base_batch // max(1, job.spec.requested_gpus))
        return int(min(tuned, job.spec.max_local_batch))

    def desired_gpus(self, job_id: str) -> int:
        """GPUs the job can usefully fill at its current limit ``R_j``.

        A job's batch-size limit translates into a worker count through
        the per-GPU batch the job was tuned for: ``c = ceil(R_j / b_j)``.
        This is the scale at which growing the batch actually buys
        throughput (adding GPUs) rather than just inflating the local
        batch on a single device.
        """
        per_gpu = self.preferred_local_batch(job_id)
        desired = math.ceil(self.limit(job_id) / per_gpu)
        return int(max(1, min(desired, self.num_gpus)))

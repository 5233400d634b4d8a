"""Helpers shared by the core (ONES) test modules."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution_batched import (
    _desired_vector,
    _refresh_decomposed,
    _remaining_vector,
)
from repro.core.operators import EvolutionContext
from repro.core.schedule import IDLE
from repro.core.scoring_incremental import (
    build_decomposition,
    fill_idle_decomposed,
    is_node_monotone,
    reorder_decomposed,
)
from repro.jobs.job import Job
from repro.jobs.throughput import ThroughputModel, ThroughputTable
from repro.prediction.beta import BetaDistribution
from tests.conftest import make_job


def make_jobs(
    num_jobs: int = 3,
    dataset_size: int = 4000,
    base_batch: int = 128,
    requested_gpus: int = 1,
) -> Dict[str, Job]:
    """A dict of pending jobs named job-0, job-1, ..."""
    jobs = {}
    for i in range(num_jobs):
        job_id = f"job-{i}"
        jobs[job_id] = make_job(
            job_id=job_id,
            dataset_size=dataset_size,
            base_batch=base_batch,
            requested_gpus=requested_gpus,
            arrival_time=float(i),
        )
    return jobs


def make_context(
    jobs: Optional[Dict[str, Job]] = None,
    num_gpus: int = 8,
    limits: Optional[Dict[str, int]] = None,
    never_started: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> EvolutionContext:
    """Build a realistic EvolutionContext over a small Longhorn cluster."""
    jobs = jobs if jobs is not None else make_jobs()
    model = ThroughputModel(make_longhorn_cluster(num_gpus))
    roster = tuple(sorted(jobs))
    limits = dict(limits) if limits is not None else {
        job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()
    }
    distributions = {
        job_id: BetaDistribution(max(1.0, job.processed_epochs()), 5.0)
        for job_id, job in jobs.items()
    }
    remaining = {
        job_id: max(job.samples_processed, 1.0) * 4.0 for job_id, job in jobs.items()
    }
    executed = {job_id: float(i * 10) for i, job_id in enumerate(sorted(jobs))}
    if never_started is None:
        never_started = {j for j, job in jobs.items() if job.first_start_time is None}
    return EvolutionContext(
        jobs=jobs,
        roster=roster,
        limits=limits,
        distributions=distributions,
        remaining_workload=remaining,
        executed_time=executed,
        num_gpus=num_gpus,
        throughput_table=ThroughputTable(model, jobs, limits, num_gpus, roster=roster),
        never_started=set(never_started),
        rng=np.random.default_rng(seed),
    )


def table_workload(num_gpus, num_jobs, seed, never_started=(), running_fraction=0.8):
    """A randomised cluster snapshot plus a factory of identical contexts.

    Each factory call builds a fresh :class:`ThroughputTable` and RNG, so
    the kernel and the scalar oracle can be driven from identical state.
    """
    jobs = make_jobs(num_jobs)
    rng = np.random.default_rng(seed)
    for i, (job_id, job) in enumerate(jobs.items()):
        if job_id in never_started or rng.random() > running_fraction:
            continue
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(int(rng.integers(500, 5000)), 10.0)
    model = ThroughputModel(make_longhorn_cluster(num_gpus))
    limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    base = make_context(
        jobs, num_gpus=num_gpus, limits=limits, seed=seed, never_started=never_started
    )

    def fresh_ctx(rng_seed):
        table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)
        return replace(base, throughput_table=table, rng=np.random.default_rng(rng_seed))

    return roster, fresh_ctx


def random_genomes(roster, num_gpus, rows, seed, idle_fraction=0.35):
    """A ``(rows, num_gpus)`` genome matrix over ``roster`` with idle genes."""
    rng = np.random.default_rng(seed)
    genomes = rng.integers(0, len(roster), size=(rows, num_gpus)).astype(np.int64)
    genomes[rng.random(genomes.shape) < idle_fraction] = IDLE
    return genomes


# --- the kernel's operators on a standalone genome matrix --------------------------------------


def _kernel_inputs(genomes, ctx):
    genomes = np.array(genomes, dtype=np.int64)
    decomp = build_decomposition(genomes, len(ctx.roster), ctx.throughput_table.node_of)
    return genomes, decomp, _desired_vector(ctx), _remaining_vector(ctx)


def kernel_refresh(genomes, ctx):
    """The kernel's refresh of ``genomes``: ``(refreshed, decomposition)``."""
    genomes, decomp, desired, remaining = _kernel_inputs(genomes, ctx)
    return _refresh_decomposed(genomes, ctx, decomp, desired, remaining), decomp


def kernel_fill(genomes, ctx):
    """The kernel's idle-GPU fill of ``genomes``: ``(filled, decomposition)``."""
    genomes, decomp, desired, remaining = _kernel_inputs(genomes, ctx)
    return fill_idle_decomposed(genomes, ctx, decomp, desired, remaining), decomp


def kernel_reorder(genomes, num_jobs, node_of):
    """The kernel's reorder of ``genomes``: ``(reordered, decomposition)``."""
    genomes = np.array(genomes, dtype=np.int64)
    node_of = np.asarray(node_of, dtype=np.int64)
    decomp = build_decomposition(genomes, num_jobs, node_of)
    return reorder_decomposed(genomes, decomp, is_node_monotone(node_of)), decomp

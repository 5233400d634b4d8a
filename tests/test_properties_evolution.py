"""Property-based invariants of the evolution operators (kernel & oracle).

Regardless of inputs, the operators must uphold the §3.2.2 contracts:

* every produced genome is well-formed (values in ``{IDLE} ∪ [0, J)``,
  one job per GPU by construction) and respects per-job GPU limits
  after refresh (no job above its ``desired_gpus``),
* the greedy fill never strands an assignable idle GPU — if idle GPUs
  remain, no roster job can take one,
* reorder preserves the multiset of assignments and packs each job's
  workers contiguously.

Runs under Hypothesis when installed; a seeded fuzz loop covers the
same invariants otherwise (CI environments without Hypothesis still
exercise every property).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.evolution import EvolutionConfig
from repro.core.evolution_batched import run_generation
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring_incremental import IncrementalScoringEngine
from tests._core_helpers import (
    kernel_fill,
    kernel_refresh,
    kernel_reorder,
    make_context,
    make_jobs,
)
from tests._evolution_oracle import fill_idle_gpus, refresh, reorder

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised on CI without hypothesis
    HAVE_HYPOTHESIS = False


# --- scenario construction -----------------------------------------------------------------------


def _scenario(num_nodes, num_jobs, seed, idle_fraction):
    """A table-backed context plus a random genome matrix."""
    num_gpus = 4 * num_nodes  # Longhorn nodes hold 4 GPUs
    jobs = make_jobs(num_jobs)
    rng = np.random.default_rng(seed)
    never = set()
    for i, (job_id, job) in enumerate(jobs.items()):
        if rng.random() < 0.25:
            never.add(job_id)
            continue
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(int(rng.integers(200, 6000)), 10.0)
    limits = {j: job.spec.base_batch * int(rng.integers(1, 6)) for j, job in jobs.items()}
    ctx = replace(
        make_context(jobs, num_gpus=num_gpus, limits=limits, seed=seed, never_started=never),
        rng=np.random.default_rng(seed + 1),
    )
    rows = int(rng.integers(2, 10))
    genomes = rng.integers(0, num_jobs, size=(rows, num_gpus)).astype(np.int64)
    genomes[rng.random(genomes.shape) < idle_fraction] = IDLE
    return ctx, genomes


def _desired(ctx):
    return np.array([ctx.desired_gpus(j) for j in ctx.roster], dtype=np.int64)


# --- invariant checkers (shared by Hypothesis and the fuzz fallback) -----------------------------


def check_genomes_well_formed(genomes, num_jobs):
    """Values in {IDLE} ∪ [0, num_jobs); a GPU can never be double-assigned
    because the genome *is* the GPU→job function."""
    assert genomes.dtype == np.int64
    assert genomes.min(initial=IDLE) >= IDLE
    assert genomes.max(initial=IDLE) < num_jobs


def check_respects_gpu_limits(genomes, ctx):
    """After refresh no job holds more than its desired_gpus."""
    desired = _desired(ctx)
    for row in genomes:
        counts = np.bincount(row[row != IDLE], minlength=len(ctx.roster))
        assert (counts <= desired).all(), (counts, desired)


def check_no_strandable_idle_gpu(genomes, ctx):
    """If a filled genome still has idle GPUs, no job could take one."""
    desired = _desired(ctx)
    for row in genomes:
        if (row == IDLE).any():
            counts = np.bincount(row[row != IDLE], minlength=len(ctx.roster))
            assert (counts >= desired).all(), (counts, desired)


def check_reorder_contract(before, after):
    """Multiset preserved; every job's workers contiguous; idle packed last."""
    for row_before, row_after in zip(before, after):
        assert sorted(row_before.tolist()) == sorted(row_after.tolist())
        placed = row_after[row_after != IDLE]
        # idle genes only at the tail
        assert (row_after[: placed.size] != IDLE).all()
        # contiguity: each placed value appears in exactly one run
        changes = 1 + int(np.count_nonzero(np.diff(placed))) if placed.size else 0
        assert changes == np.unique(placed).size


def run_all_invariants(num_nodes, num_jobs, seed, idle_fraction):
    ctx, genomes = _scenario(num_nodes, num_jobs, seed, idle_fraction)
    num_jobs = len(ctx.roster)

    refreshed, _ = kernel_refresh(genomes, ctx)
    check_genomes_well_formed(refreshed, num_jobs)
    check_respects_gpu_limits(refreshed, ctx)
    check_no_strandable_idle_gpu(refreshed, ctx)

    filled, _ = kernel_fill(genomes, ctx)
    check_genomes_well_formed(filled, num_jobs)
    check_no_strandable_idle_gpu(filled, ctx)

    reordered, _ = kernel_reorder(refreshed, num_jobs, ctx.throughput_table.node_of)
    check_genomes_well_formed(reordered, num_jobs)
    check_reorder_contract(refreshed, reordered)

    # The scalar oracle upholds the same contracts (differential parity
    # is asserted elsewhere; here we only need the invariants).
    roster = ctx.roster
    scalar = np.stack(
        [refresh(Schedule(roster=roster, genome=g), ctx).genome for g in genomes]
    )
    check_respects_gpu_limits(scalar, ctx)
    check_no_strandable_idle_gpu(scalar, ctx)
    scalar_filled = np.stack(
        [fill_idle_gpus(Schedule(roster=roster, genome=g), ctx).genome for g in genomes]
    )
    check_no_strandable_idle_gpu(scalar_filled, ctx)
    scalar_reordered = np.stack(
        [reorder(Schedule(roster=roster, genome=g)).genome for g in refreshed]
    )
    check_reorder_contract(refreshed, scalar_reordered)

    # A full generation only ever emits well-formed genomes, and its
    # survivors (post refresh+fill) never waste a GPU a job could use.
    result = run_generation(
        refreshed, ctx, EvolutionConfig(population_size=6), IncrementalScoringEngine()
    )
    check_genomes_well_formed(result.population, num_jobs)
    check_genomes_well_formed(result.best_genome[None, :], num_jobs)
    # Survivors must be constructible through the validating public API.
    Schedule(roster=roster, genome=result.best_genome)


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(min_value=1, max_value=6),
        num_jobs=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        idle_fraction=st.floats(min_value=0.0, max_value=0.9),
    )
    def test_operator_invariants_hypothesis(num_nodes, num_jobs, seed, idle_fraction):
        run_all_invariants(num_nodes, num_jobs, seed, idle_fraction)


@pytest.mark.parametrize("seed", range(8))
def test_operator_invariants_fuzz(seed):
    """Seeded fuzz loop: the Hypothesis-free fallback of the same properties."""
    rng = np.random.default_rng(1000 + seed)
    for _ in range(3):
        run_all_invariants(
            num_nodes=int(rng.integers(1, 6)),
            num_jobs=int(rng.integers(1, 12)),
            seed=int(rng.integers(0, 2**31 - 1)),
            idle_fraction=float(rng.uniform(0.0, 0.9)),
        )

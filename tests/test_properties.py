"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.core.schedule import IDLE, Schedule
from repro.jobs.convergence import ConvergenceProfile
from repro.jobs.throughput import split_batch
from repro.prediction.beta import BetaDistribution
from repro.utils.stats import cumulative_frequency, summarize
from tests._evolution_oracle import reorder, uniform_crossover

# --- strategies -----------------------------------------------------------------------------

batches = st.integers(min_value=0, max_value=100_000)
workers = st.integers(min_value=1, max_value=64)
positive_floats = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def genomes(draw):
    """A roster plus a random genome over it."""
    num_jobs = draw(st.integers(min_value=1, max_value=6))
    num_gpus = draw(st.integers(min_value=1, max_value=24))
    roster = tuple(f"job-{i}" for i in range(num_jobs))
    genome = draw(
        st.lists(
            st.integers(min_value=IDLE, max_value=num_jobs - 1),
            min_size=num_gpus,
            max_size=num_gpus,
        )
    )
    return roster, np.asarray(genome, dtype=np.int64)


@st.composite
def convergence_profiles(draw):
    target = draw(st.floats(min_value=0.3, max_value=0.9))
    max_acc = draw(st.floats(min_value=target + 0.02, max_value=0.99))
    initial_loss = draw(st.floats(min_value=0.5, max_value=10.0))
    final_loss = draw(st.floats(min_value=0.01, max_value=initial_loss * 0.5))
    # The critical batch (safe horizon with LR scaling) is never smaller
    # than the batch the job was tuned for.
    reference_batch = draw(st.integers(min_value=1, max_value=1024))
    critical_batch = draw(st.integers(min_value=reference_batch, max_value=8192))
    return ConvergenceProfile(
        base_epochs_to_target=draw(st.floats(min_value=1.0, max_value=100.0)),
        target_accuracy=target,
        max_accuracy=max_acc,
        initial_loss=initial_loss,
        final_loss=final_loss,
        reference_batch=reference_batch,
        critical_batch=critical_batch,
    )


# --- split_batch ------------------------------------------------------------------------------


class TestSplitBatchProperties:
    @given(batches, workers)
    def test_total_preserved_and_balanced(self, global_batch, num_workers):
        parts = split_batch(global_batch, num_workers)
        assert sum(parts) == global_batch
        assert len(parts) == num_workers
        assert max(parts) - min(parts) <= 1
        assert all(p >= 0 for p in parts)

    @given(batches, workers)
    def test_descending_order(self, global_batch, num_workers):
        parts = split_batch(global_batch, num_workers)
        assert parts == sorted(parts, reverse=True)


# --- schedule genome ---------------------------------------------------------------------------


class TestScheduleProperties:
    @given(genomes())
    def test_counts_sum_to_busy_gpus(self, data):
        roster, genome = data
        schedule = Schedule(roster=roster, genome=genome)
        counts = schedule.gpu_counts()
        assert sum(counts.values()) == int(np.count_nonzero(genome != IDLE))
        assert len(schedule.idle_gpus()) + sum(counts.values()) == schedule.num_gpus

    @given(genomes())
    def test_reorder_preserves_counts_and_packs(self, data):
        roster, genome = data
        schedule = Schedule(roster=roster, genome=genome)
        packed = reorder(schedule)
        assert packed.gpu_counts() == schedule.gpu_counts()
        # After reorder, each job occupies a contiguous block of GPUs.
        for job_id in packed.placed_jobs():
            gpus = packed.gpus_of(job_id)
            assert gpus == list(range(gpus[0], gpus[0] + len(gpus)))

    @given(genomes(), genomes())
    def test_crossover_children_only_contain_parent_genes(self, data_a, data_b):
        roster_a, genome_a = data_a
        _, genome_b = data_b
        # Make the second parent compatible with the first.
        size = len(genome_a)
        genome_b = np.resize(genome_b, size)
        genome_b = np.clip(genome_b, IDLE, len(roster_a) - 1)
        parent_a = Schedule(roster=roster_a, genome=genome_a)
        parent_b = Schedule(roster=roster_a, genome=genome_b)
        child1, child2 = uniform_crossover(parent_a, parent_b, rng=0)
        for gpu in range(size):
            parents = {int(genome_a[gpu]), int(genome_b[gpu])}
            assert int(child1.genome[gpu]) in parents
            assert int(child2.genome[gpu]) in parents
            # Together the children use exactly the parents' genes.
            assert {int(child1.genome[gpu]), int(child2.genome[gpu])} == parents

    @given(genomes())
    def test_reindex_to_same_roster_is_identity(self, data):
        roster, genome = data
        schedule = Schedule(roster=roster, genome=genome)
        assert schedule.reindexed(roster) == schedule


# --- allocation --------------------------------------------------------------------------------


@st.composite
def allocations(draw):
    num_gpus = draw(st.integers(min_value=1, max_value=32))
    num_jobs = draw(st.integers(min_value=1, max_value=5))
    mapping = {}
    for gpu in range(num_gpus):
        if draw(st.booleans()):
            job = draw(st.integers(min_value=0, max_value=num_jobs - 1))
            batch = draw(st.integers(min_value=1, max_value=512))
            mapping[gpu] = WorkerAssignment(f"job-{job}", batch)
    return Allocation(mapping), num_gpus


class TestAllocationProperties:
    @given(allocations())
    def test_job_views_are_consistent(self, data):
        alloc, num_gpus = data
        used = set(alloc.used_gpus())
        free = set(alloc.free_gpus(range(num_gpus)))
        assert used | free == set(range(num_gpus))
        assert used & free == set()
        total_batch = sum(alloc.global_batch(j) for j in alloc.jobs())
        assert total_batch == sum(b for _, b in alloc.as_dict().values())
        assert sum(alloc.num_gpus(j) for j in alloc.jobs()) == len(alloc)

    @given(allocations())
    def test_changed_jobs_is_symmetric_and_reflexive(self, data):
        alloc, _ = data
        assert alloc.changed_jobs(alloc) == set()
        other = Allocation.empty()
        assert alloc.changed_jobs(other) == other.changed_jobs(alloc) == alloc.jobs()


# --- convergence model ----------------------------------------------------------------------------


class TestConvergenceProperties:
    @settings(max_examples=50)
    @given(convergence_profiles(), st.integers(min_value=1, max_value=65536))
    def test_penalty_at_least_one_and_monotone_in_batch(self, profile, batch):
        assert profile.epoch_penalty(batch) >= 1.0
        assert profile.epoch_penalty(batch * 2) >= profile.epoch_penalty(batch)
        assert profile.epoch_penalty(batch, lr_scaled=False) >= profile.epoch_penalty(batch)

    @settings(max_examples=50)
    @given(convergence_profiles(), st.floats(min_value=0, max_value=500))
    def test_accuracy_bounded_and_loss_above_final(self, profile, epochs):
        acc = profile.accuracy_at(epochs)
        assert 0.0 <= acc <= profile.max_accuracy
        assert profile.loss_at(epochs) >= profile.final_loss - 1e-12

    @settings(max_examples=50)
    @given(
        convergence_profiles(),
        st.integers(min_value=1, max_value=8192),
        st.integers(min_value=1, max_value=8192),
    )
    def test_spike_only_for_increases(self, profile, old, new):
        spike = profile.abrupt_scaling_spike(old, new)
        assert spike >= 0.0
        if new <= 2 * old:
            assert spike == 0.0


# --- misc invariants ----------------------------------------------------------------------------------


class TestMiscProperties:
    @given(st.floats(min_value=1, max_value=50), st.floats(min_value=1, max_value=50))
    def test_beta_mean_between_zero_and_one(self, alpha, beta):
        dist = BetaDistribution(alpha, beta)
        assert 0.0 < dist.mean < 1.0
        low, high = dist.confidence_interval(0.9)
        assert 0.0 <= low <= high <= 1.0

    @given(st.lists(positive_floats, min_size=1, max_size=200))
    def test_summarize_bounds(self, values):
        stats = summarize(values)
        assert stats.minimum <= stats.p25 <= stats.median <= stats.p75 <= stats.maximum
        # Allow a whisker of floating-point error on the mean.
        tolerance = 1e-9 * max(abs(stats.minimum), abs(stats.maximum), 1.0)
        assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance

    @given(st.lists(positive_floats, min_size=1, max_size=200))
    def test_cumulative_frequency_monotone(self, values):
        x, cf = cumulative_frequency(values, num_points=64)
        assert np.all(np.diff(cf) >= -1e-12)
        assert cf[-1] == pytest.approx(1.0)

"""Tests for repro.core.schedule (the genome of Fig. 1)."""

import numpy as np
import pytest

from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.core.schedule import IDLE, Schedule
from tests.conftest import global_batch, gpu_count, make_job


@pytest.fixture
def roster():
    return ("job-a", "job-b", "job-c")


@pytest.fixture
def schedule(roster):
    # job-a on GPUs 0,1; job-b on GPU 2; GPU 3 idle.
    return Schedule(roster=roster, genome=np.array([0, 0, 1, IDLE]))


class TestConstruction:
    def test_duplicate_roster_rejected(self):
        with pytest.raises(ValueError):
            Schedule(roster=("a", "a"), genome=np.array([0]))

    def test_out_of_range_genome_rejected(self, roster):
        with pytest.raises(ValueError):
            Schedule(roster=roster, genome=np.array([5]))
        with pytest.raises(ValueError):
            Schedule(roster=roster, genome=np.array([-2]))

    def test_corrupt_genome_rejected_by_public_constructor(self, roster):
        """The validation gap the batched fast path must never open.

        ``Schedule.from_validated_genome`` deliberately skips
        ``__post_init__`` for engine-internal genomes; this test pins
        that every *public* construction of the same corrupt genomes is
        still rejected, so the fast path cannot leak into user-facing
        APIs unnoticed.
        """
        corrupt_out_of_roster = np.array([0, 1, len(roster), IDLE])
        corrupt_below_idle = np.array([0, 1, -7, IDLE])
        corrupt_shape = np.array([[0, 1], [2, IDLE]])
        for corrupt in (corrupt_out_of_roster, corrupt_below_idle, corrupt_shape):
            with pytest.raises(ValueError):
                Schedule(roster=roster, genome=corrupt)
        # The fast path itself performs no validation — that is its
        # contract — but its output for a *valid* genome is
        # indistinguishable from a publicly constructed schedule.
        valid = np.array([0, 1, 2, IDLE])
        fast = Schedule.from_validated_genome(roster, valid)
        public = Schedule(roster=roster, genome=valid)
        assert fast.roster == public.roster
        assert np.array_equal(fast.genome, public.genome)

    def test_from_validated_genome_copies_and_freezes(self, roster):
        source = np.array([0, 1, 2, IDLE])
        fast = Schedule.from_validated_genome(roster, source)
        source[0] = 2  # mutating the caller's array must not alias
        assert fast.job_id_at(0) == "job-a"
        with pytest.raises(ValueError):
            fast.genome[0] = 1  # frozen like the public constructor's

    def test_from_allocation_drops_unknown_jobs(self, roster):
        alloc = Allocation(
            {0: WorkerAssignment("job-a", 8), 1: WorkerAssignment("finished", 8)}
        )
        sched = Schedule.from_allocation(roster, 4, alloc)
        assert sched.job_id_at(0) == "job-a"
        assert sched.job_id_at(1) is None


class TestQueries:
    def test_counts(self, schedule):
        assert schedule.gpu_count("job-a") == 2
        assert schedule.gpu_count("job-b") == 1
        assert schedule.gpu_count("job-c") == 0
        assert schedule.gpu_count("unknown") == 0

    def test_gpus_of(self, schedule):
        assert schedule.gpus_of("job-a") == [0, 1]
        assert schedule.gpus_of("job-c") == []

    def test_placed_and_waiting(self, schedule):
        assert schedule.placed_jobs() == ["job-a", "job-b"]


class TestBatchDerivation:
    def test_batch_capped_by_limit(self, schedule):
        job = make_job(job_id="job-a")
        batch = schedule.global_batch(job, limit=100)
        assert batch == 100

    def test_batch_capped_by_device_memory(self, schedule):
        job = make_job(job_id="job-a")
        huge_limit = 10**6
        batch = schedule.global_batch(job, limit=huge_limit)
        assert batch == min(2 * job.spec.max_local_batch, job.dataset_size)

    def test_batch_at_least_one_per_worker(self, schedule):
        job = make_job(job_id="job-a")
        assert schedule.global_batch(job, limit=1) == 2

    def test_unplaced_job_has_zero_batch(self, schedule):
        job = make_job(job_id="job-c")
        assert schedule.global_batch(job, limit=100) == 0
        assert schedule.local_batches(job, limit=100) == []

    def test_local_batches_sum_to_global(self, schedule):
        job = make_job(job_id="job-a")
        local = schedule.local_batches(job, limit=100)
        assert sum(local) == schedule.global_batch(job, limit=100)


class TestConversions:
    def test_to_allocation(self, schedule):
        jobs = {"job-a": make_job(job_id="job-a"), "job-b": make_job(job_id="job-b")}
        limits = {"job-a": 100, "job-b": 64}
        alloc = schedule.to_allocation(jobs, limits)
        assert gpu_count(alloc, "job-a") == 2
        assert global_batch(alloc, "job-a") == 100
        assert global_batch(alloc, "job-b") == 64

    def test_reindexed_drops_missing_jobs(self, schedule):
        new = schedule.reindexed(("job-b", "job-d"))
        assert new.gpu_count("job-b") == 1
        assert new.gpu_count("job-a") == 0
        assert np.flatnonzero(new.genome == IDLE).tolist() == [0, 1, 3]


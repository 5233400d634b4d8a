"""Tests for repro.cluster.allocation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.allocation import Allocation, JobConfig, WorkerAssignment
from tests.conftest import global_batch, gpu_count


class TestWorkerAssignment:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            WorkerAssignment("job-a", 0)

    def test_rejects_empty_job_id(self):
        with pytest.raises(ValueError):
            WorkerAssignment("", 8)


class TestAllocationBasics:
    def test_empty(self):
        alloc = Allocation.empty()
        assert alloc.used_gpus() == []
        assert alloc.jobs() == set()
        assert alloc.free_gpus(range(4)) == [0, 1, 2, 3]

    def test_job_views(self, simple_allocation):
        assert simple_allocation.gpus_of("job-a") == [0, 1]
        assert global_batch(simple_allocation, "job-a") == 128
        assert gpu_count(simple_allocation, "job-b") == 2
        assert simple_allocation.jobs() == {"job-a", "job-b"}
        assert simple_allocation.used_gpus() == [0, 1, 2, 3]
        assert simple_allocation.free_gpus(range(6)) == [4, 5]

    def test_config_of(self, simple_allocation):
        config = simple_allocation.config_of("job-a")
        assert config.gpu_ids == (0, 1)
        assert config.local_batches == (64, 64)
        assert sum(config.local_batches) == 128
        assert config.num_gpus == 2
        assert simple_allocation.config_of("missing") is None

    def test_from_job_map_rejects_shared_gpu(self):
        with pytest.raises(ValueError, match="assigned to both"):
            Allocation.from_job_map({"a": [(0, 8)], "b": [(0, 8)]})

class TestAllocationComparison:
    def test_equality(self, simple_allocation):
        clone = Allocation(
            {g: WorkerAssignment(j, b) for g, (j, b) in simple_allocation.as_dict().items()}
        )
        assert clone == simple_allocation

    def test_changed_jobs_detects_batch_change(self, simple_allocation):
        modified = dict(simple_allocation.as_dict())
        modified[0] = ("job-a", 128)
        other = Allocation.from_job_map(
            {
                "job-a": [(0, 128), (1, 64)],
                "job-b": [(2, 32), (3, 32)],
            }
        )
        assert simple_allocation.changed_jobs(other) == {"job-a"}

    def test_changed_jobs_detects_removal(self, simple_allocation):
        other = Allocation.from_job_map({"job-a": [(0, 64), (1, 64)]})
        assert simple_allocation.changed_jobs(other) == {"job-b"}

    def test_changed_jobs_empty_for_identical(self, simple_allocation):
        assert simple_allocation.changed_jobs(simple_allocation) == set()

    def test_changed_jobs_detects_a_move_at_the_same_batches(self, simple_allocation):
        other = Allocation.from_job_map(
            {
                "job-a": [(0, 64), (1, 64)],
                "job-b": [(4, 32), (5, 32)],
            }
        )
        assert simple_allocation.changed_jobs(other) == {"job-b"}
        assert other.changed_jobs(simple_allocation) == {"job-b"}

    def test_changed_jobs_detects_an_added_job(self, simple_allocation):
        other = Allocation.from_job_map(
            {
                "job-a": [(0, 64), (1, 64)],
                "job-b": [(2, 32), (3, 32)],
                "job-c": [(6, 16)],
            }
        )
        assert simple_allocation.changed_jobs(other) == {"job-c"}
        assert Allocation.empty().changed_jobs(simple_allocation) == {"job-a", "job-b"}


class TestValidation:
    def test_gpu_out_of_range(self, simple_allocation):
        with pytest.raises(ValueError, match="outside the cluster"):
            simple_allocation.validate(num_gpus=2)

    def test_local_batch_limit(self, simple_allocation):
        with pytest.raises(ValueError, match="exceeds its device limit"):
            simple_allocation.validate(num_gpus=8, max_local_batch={"job-a": 32})

    def test_valid_passes(self, simple_allocation):
        simple_allocation.validate(num_gpus=8, max_local_batch={"job-a": 64, "job-b": 32})

class TestJobIndex:
    """The lazy job → GPU index answers exactly what a scan of every GPU does."""

    @staticmethod
    def _scan_gpus(alloc, job_id):
        return sorted(g for g, w in alloc._assignments.items() if w.job_id == job_id)

    @settings(max_examples=80, deadline=None)
    @given(
        workers=st.dictionaries(
            st.integers(min_value=0, max_value=63),
            st.tuples(
                st.sampled_from([f"job-{i:03d}" for i in range(40)]),
                st.integers(min_value=1, max_value=512),
            ),
            max_size=64,
        )
    )
    def test_queries_equal_brute_force_scans(self, workers):
        alloc = Allocation({g: WorkerAssignment(j, b) for g, (j, b) in workers.items()})
        scanned_jobs = {w.job_id for w in alloc._assignments.values()}
        # Same members *and* the same iteration order as the scan's set.
        assert list(alloc.jobs()) == list(scanned_jobs)
        for job_id in sorted(scanned_jobs) + ["job-missing"]:
            gpus = self._scan_gpus(alloc, job_id)
            assert alloc.gpus_of(job_id) == gpus
            assert gpu_count(alloc, job_id) == len(gpus)
            assert global_batch(alloc, job_id) == sum(
                w.local_batch
                for w in alloc._assignments.values()
                if w.job_id == job_id
            )
            expected = (
                JobConfig(
                    job_id,
                    tuple(gpus),
                    tuple(alloc._assignments[g].local_batch for g in gpus),
                )
                if gpus
                else None
            )
            assert alloc.config_of(job_id) == expected
        # Free GPUs: ascending plain ints, whatever the order and integer
        # type of the ids asked about.
        scanned_used = {g for g in alloc._assignments}
        asked = np.arange(72)[::-1]
        free = alloc.free_gpus(asked)
        assert free == sorted(int(g) for g in asked if int(g) not in scanned_used)
        assert all(type(g) is int for g in free)

    def test_answers_are_copies(self, simple_allocation):
        simple_allocation.gpus_of("job-a").append(99)
        simple_allocation.jobs().add("job-z")
        assert simple_allocation.gpus_of("job-a") == [0, 1]
        assert simple_allocation.jobs() == {"job-a", "job-b"}

    def test_index_follows_gpu_order_not_insertion_order(self):
        alloc = Allocation({5: WorkerAssignment("a", 8), 1: WorkerAssignment("a", 4)})
        assert alloc.gpus_of("a") == [1, 5]
        assert alloc.config_of("a").local_batches == (4, 8)

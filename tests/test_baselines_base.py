"""Tests for repro.baselines.base."""

import pytest

from repro.baselines.base import (
    ClusterState,
    SchedulerCapabilities,
    allocation_with_job,
    pick_gpus_packed,
    user_local_batch,
)
from repro.cluster.allocation import Allocation
from repro.jobs.throughput import ThroughputModel
from tests.conftest import gpu_count, make_job, make_running_job


def _state(jobs, topology, allocation=None, now=0.0):
    return ClusterState(
        now=now,
        topology=topology,
        throughput_model=ThroughputModel(topology),
        allocation=allocation or Allocation.empty(),
        jobs=jobs,
    )


class TestCapabilities:
    def test_row_rendering(self):
        caps = SchedulerCapabilities("dynamic", True, True, False)
        row = caps.as_row()
        assert row["Greedy/Dynamic Strategy"] == "Dynamic"
        assert row["Allow Preemption"] == "Y"
        assert row["Elastic Batch Size"] == "N"

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            SchedulerCapabilities("random", True, True, True)


class TestClusterState:
    def test_job_views(self, small_topology):
        running = make_running_job(job_id="run", now=0.0)
        pending = make_job(job_id="wait", arrival_time=1.0)
        future = make_job(job_id="future", arrival_time=100.0)
        done = make_running_job(job_id="done")
        done.mark_completed(2.0)
        jobs = {"run": running, "wait": pending, "future": future, "done": done}
        state = _state(jobs, small_topology, now=5.0)
        assert set(state.active_jobs()) == {"run", "wait"}
        assert set(state.running_jobs()) == {"run"}
        assert list(state.pending_jobs()) == ["wait"]

    def test_active_jobs_computed_once_per_snapshot(self, small_topology):
        jobs = {"run": make_running_job(job_id="run")}
        state = _state(jobs, small_topology, now=5.0)
        active = state.active_jobs()
        assert state.active_jobs() is active
        # A new job reaches callbacks only through a new snapshot.
        jobs["wait"] = make_job(job_id="wait", arrival_time=1.0)
        assert set(state.active_jobs()) == {"run"}
        assert set(_state(jobs, small_topology, now=5.0).active_jobs()) == {"run", "wait"}

    def test_free_gpus(self, small_topology, simple_allocation):
        state = _state({}, small_topology, simple_allocation)
        assert state.free_gpus() == [4, 5, 6, 7]

    def test_observed_or_estimated_prefers_measurements(self, small_topology):
        job = make_running_job(job_id="run")
        job.advance(1000, 2.0)  # measured 500 samples/s
        state = _state({"run": job}, small_topology)
        assert state.observed_or_estimated_throughput(job) == pytest.approx(500.0)

    def test_observed_or_estimated_falls_back_to_model(self, small_topology):
        job = make_job(job_id="wait")
        state = _state({"wait": job}, small_topology)
        assert state.observed_or_estimated_throughput(job) > 0


class TestHelpers:
    def test_user_local_batch(self):
        job = make_job(base_batch=256, requested_gpus=4)
        assert user_local_batch(job) == 64

    def test_user_local_batch_capped_by_memory(self):
        job = make_job(model_name="vgg16", base_batch=512, requested_gpus=1, dataset_size=4000)
        assert user_local_batch(job) == job.spec.max_local_batch

    def test_pick_gpus_packed_prefers_one_node(self, small_topology):
        chosen = pick_gpus_packed(small_topology, range(8), 4)
        assert small_topology.nodes_spanned(chosen) == 1

    def test_pick_gpus_packed_prefers_fuller_node(self, small_topology):
        # Node 0 has 2 free GPUs, node 1 has 3: a 3-GPU job should land on node 1.
        free = [0, 1, 5, 6, 7]
        chosen = pick_gpus_packed(small_topology, free, 3)
        assert chosen == [5, 6, 7]

    def test_pick_gpus_packed_handles_shortage(self, small_topology):
        assert pick_gpus_packed(small_topology, [3], 4) == [3]
        assert pick_gpus_packed(small_topology, [], 4) == []
        assert pick_gpus_packed(small_topology, [1, 2], 0) == []

    def test_allocation_with_job(self, simple_allocation):
        job = make_job(job_id="job-c")
        new = allocation_with_job(simple_allocation, job, [4, 5], [16, 16])
        assert gpu_count(new, "job-c") == 2
        assert gpu_count(new, "job-a") == 2

    def test_allocation_with_job_replaces_existing_workers(self, simple_allocation):
        job = make_job(job_id="job-a")
        new = allocation_with_job(simple_allocation, job, [6], [32])
        assert new.gpus_of("job-a") == [6]

    def test_allocation_with_job_rejects_busy_gpu(self, simple_allocation):
        job = make_job(job_id="job-c")
        with pytest.raises(ValueError):
            allocation_with_job(simple_allocation, job, [0], [16])


"""Tests for the Tiresias baseline."""

import pytest

from repro.baselines.base import ClusterState
from repro.baselines.tiresias import TiresiasScheduler
from repro.cluster.allocation import Allocation
from repro.cluster.topology import make_longhorn_cluster
from repro.jobs.throughput import ThroughputModel
from repro.sim.simulator import ClusterSimulator
from tests.conftest import gpu_count, make_job, make_running_job


def _state(jobs, topology, allocation=None, now=0.0):
    return ClusterState(
        now=now,
        topology=topology,
        throughput_model=ThroughputModel(topology),
        allocation=allocation or Allocation.empty(),
        jobs=jobs,
    )


class TestQueueLevels:
    def test_new_job_is_highest_priority(self):
        scheduler = TiresiasScheduler(queue_thresholds=(100.0, 1000.0))
        job = make_job()
        assert scheduler.queue_level(job, now=0.0) == 0

    def test_level_grows_with_attained_service(self):
        scheduler = TiresiasScheduler(queue_thresholds=(100.0, 1000.0))
        job = make_running_job(gpu_ids=(0, 1), local_batches=(64, 64), now=0.0)
        assert scheduler.queue_level(job, now=10.0) == 0     # 20 GPU-s
        assert scheduler.queue_level(job, now=100.0) == 1    # 200 GPU-s
        assert scheduler.queue_level(job, now=600.0) == 2    # 1200 GPU-s

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            TiresiasScheduler(queue_thresholds=(100.0, 50.0))
        with pytest.raises(ValueError):
            TiresiasScheduler(queue_thresholds=(-1.0,))


class TestScheduling:
    def test_fixed_job_size(self, small_topology):
        scheduler = TiresiasScheduler()
        job = make_job(job_id="a", requested_gpus=2)
        proposal = scheduler.on_job_arrival(job, _state({"a": job}, small_topology))
        assert gpu_count(proposal, "a") == 2

    def test_prioritises_least_attained_service(self, small_topology):
        scheduler = TiresiasScheduler(queue_thresholds=(50.0, 500.0))
        old = make_running_job(job_id="old", gpu_ids=tuple(range(8)), local_batches=(16,) * 8, now=0.0)
        newcomer = make_job(job_id="new", arrival_time=100.0, requested_gpus=4)
        allocation = Allocation.from_job_map({"old": [(i, 16) for i in range(8)]})
        jobs = {"old": old, "new": newcomer}
        proposal = scheduler.on_job_arrival(newcomer, _state(jobs, small_topology, allocation, now=100.0))
        # The old job has attained 800 GPU-seconds and falls to a lower
        # queue; the newcomer (0 attained) must be served.
        assert proposal is not None
        assert gpu_count(proposal, "new") == 4

    def test_keeps_running_job_in_place_when_possible(self, small_topology):
        scheduler = TiresiasScheduler()
        running = make_running_job(job_id="run", gpu_ids=(0, 1), local_batches=(64, 64))
        allocation = Allocation.from_job_map({"run": [(0, 64), (1, 64)]})
        other = make_job(job_id="other", arrival_time=1.0, requested_gpus=2)
        jobs = {"run": running, "other": other}
        proposal = scheduler.on_job_arrival(other, _state(jobs, small_topology, allocation, now=1.0))
        assert proposal.gpus_of("run") == [0, 1]

    def test_epoch_end_only_reacts_to_level_changes(self, small_topology):
        scheduler = TiresiasScheduler(queue_thresholds=(1e6,))
        job = make_running_job(job_id="a")
        allocation = Allocation.from_job_map({"a": [(0, 128)]})
        state = _state({"a": job}, small_topology, allocation, now=1.0)
        record = job.complete_epoch(1.0)
        first = scheduler.on_epoch_end(job, record, state)
        second = scheduler.on_epoch_end(job, record, state)
        # No queue level changed between the two calls.
        assert second is None

    def test_table3_capabilities(self):
        caps = TiresiasScheduler().capabilities
        assert caps.strategy == "greedy"
        assert caps.allows_preemption
        assert not caps.elastic_job_size
        assert not caps.elastic_batch_size

    def test_end_to_end(self, tiny_trace):
        result = ClusterSimulator(make_longhorn_cluster(8), TiresiasScheduler(), tiny_trace).run()
        assert not result.incomplete
        assert result.average_jct > 0

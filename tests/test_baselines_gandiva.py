"""Tests for the Gandiva-style time-slicing baseline."""

import pytest

from repro.baselines.base import ClusterState
from repro.baselines.gandiva import GandivaScheduler
from repro.cluster.allocation import Allocation
from repro.cluster.topology import make_longhorn_cluster
from repro.jobs.throughput import ThroughputModel
from repro.sim.simulator import ClusterSimulator
from repro.utils.units import MINUTE
from tests.conftest import gpu_count, make_job, make_running_job


def _state(jobs, topology, allocation=None, now=0.0):
    return ClusterState(
        now=now,
        topology=topology,
        throughput_model=ThroughputModel(topology),
        allocation=allocation or Allocation.empty(),
        jobs=jobs,
    )


class TestConfiguration:
    def test_default_round_length(self):
        assert GandivaScheduler().timer_interval == pytest.approx(1.0 * MINUTE)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            GandivaScheduler(time_quantum=0.0)
        with pytest.raises(ValueError):
            GandivaScheduler(migration_quality_threshold=0.0)

    def test_capabilities(self):
        caps = GandivaScheduler().capabilities
        assert caps.allows_preemption
        assert not caps.elastic_job_size
        assert not caps.elastic_batch_size


class TestScheduling:
    def test_arrival_starts_immediately_when_gpus_free(self, small_topology):
        scheduler = GandivaScheduler()
        job = make_job(job_id="a", requested_gpus=2)
        proposal = scheduler.on_job_arrival(job, _state({"a": job}, small_topology))
        assert gpu_count(proposal, "a") == 2

    def test_arrival_waits_when_cluster_full(self, small_topology):
        scheduler = GandivaScheduler()
        running = make_running_job(job_id="run", gpu_ids=tuple(range(8)), local_batches=(16,) * 8)
        allocation = Allocation.from_job_map({"run": [(i, 16) for i in range(8)]})
        pending = make_job(job_id="wait", arrival_time=1.0, requested_gpus=4)
        proposal = scheduler.on_job_arrival(
            pending, _state({"run": running, "wait": pending}, small_topology, allocation, now=1.0)
        )
        assert proposal is None

    def test_timer_round_robins_between_jobs(self, small_topology):
        """With two 8-GPU jobs on an 8-GPU cluster, successive rounds alternate."""
        scheduler = GandivaScheduler()
        a = make_running_job(job_id="a", gpu_ids=tuple(range(8)), local_batches=(16,) * 8)
        b = make_job(job_id="b", arrival_time=1.0, requested_gpus=8)
        allocation = Allocation.from_job_map({"a": [(i, 16) for i in range(8)]})
        jobs = {"a": a, "b": b}
        owners = set()
        current_allocation = allocation
        for round_index in range(4):
            state = _state(jobs, small_topology, current_allocation, now=60.0 * (round_index + 1))
            proposal = scheduler.on_timer(state)
            if proposal is not None:
                current_allocation = proposal
            owners.add(tuple(sorted(current_allocation.jobs())))
        # Over a few rounds both jobs get slices (not always job "a").
        assert any("b" in owner for owner in owners)

    def test_well_placed_job_is_not_migrated(self, small_topology):
        scheduler = GandivaScheduler()
        job = make_running_job(job_id="a", gpu_ids=(0, 1), local_batches=(64, 64))
        allocation = Allocation.from_job_map({"a": [(0, 64), (1, 64)]})
        proposal = scheduler.on_timer(_state({"a": job}, small_topology, allocation, now=60.0))
        # Only one job, already well packed: nothing to change.
        assert proposal is None

    def test_poorly_placed_job_is_repacked(self, small_topology):
        scheduler = GandivaScheduler()
        # Workers scattered across both nodes although they would fit on one.
        job = make_running_job(job_id="a", gpu_ids=(0, 4), local_batches=(64, 64))
        allocation = Allocation.from_job_map({"a": [(0, 64), (4, 64)]})
        proposal = scheduler.on_timer(_state({"a": job}, small_topology, allocation, now=60.0))
        assert proposal is not None
        gpus = proposal.gpus_of("a")
        assert small_topology.nodes_spanned(gpus) == 1

    def test_end_to_end(self, tiny_trace):
        result = ClusterSimulator(make_longhorn_cluster(8), GandivaScheduler(), tiny_trace).run()
        assert not result.incomplete

"""Tests for the FIFO and SRTF reference schedulers."""

import pytest

from repro.baselines.base import ClusterState
from repro.baselines.fifo import FIFOScheduler
from repro.baselines.srtf import SRTFScheduler
from repro.cluster.allocation import Allocation
from repro.cluster.topology import make_longhorn_cluster
from repro.jobs.throughput import ThroughputModel
from repro.sim.simulator import ClusterSimulator
from tests.conftest import gpu_count, make_job


def _state(jobs, topology, allocation=None, now=0.0):
    return ClusterState(
        now=now,
        topology=topology,
        throughput_model=ThroughputModel(topology),
        allocation=allocation or Allocation.empty(),
        jobs=jobs,
    )


class TestFIFO:
    def test_serves_in_arrival_order(self, small_topology):
        scheduler = FIFOScheduler()
        jobs = {
            "late": make_job(job_id="late", arrival_time=5.0, requested_gpus=2),
            "early": make_job(job_id="early", arrival_time=1.0, requested_gpus=2),
        }
        proposal = scheduler.on_job_arrival(jobs["late"], _state(jobs, small_topology, now=5.0))
        assert gpu_count(proposal, "early") == 2
        assert gpu_count(proposal, "late") == 2

    def test_head_of_line_blocking(self, small_topology):
        """Strict FIFO: a big job at the head blocks smaller later jobs."""
        scheduler = FIFOScheduler()
        jobs = {
            "big": make_job(job_id="big", arrival_time=0.0, requested_gpus=8),
            "small": make_job(job_id="small", arrival_time=1.0, requested_gpus=1),
        }
        # 4 GPUs already busy, so the 8-GPU head job cannot start.
        busy = Allocation.from_job_map({"running": [(i, 8) for i in range(4)]})
        jobs["running"] = make_job(job_id="running")
        jobs["running"].start_running(0.0, list(range(4)), [8] * 4)
        state = _state(jobs, small_topology, busy, now=2.0)
        proposal = scheduler.on_job_arrival(jobs["small"], state)
        assert proposal is None

    def test_fixed_job_size_capability(self):
        caps = FIFOScheduler().capabilities
        assert not caps.elastic_job_size
        assert not caps.elastic_batch_size
        assert not caps.allows_preemption

    def test_epoch_end_is_ignored(self, small_topology):
        scheduler = FIFOScheduler()
        job = make_job(job_id="a")
        assert scheduler.on_epoch_end(job, None, _state({"a": job}, small_topology)) is None

    def test_end_to_end(self, tiny_trace):
        result = ClusterSimulator(make_longhorn_cluster(8), FIFOScheduler(), tiny_trace).run()
        assert not result.incomplete


class TestSRTF:
    def test_prefers_shorter_jobs(self, small_topology):
        scheduler = SRTFScheduler()
        short = make_job(job_id="short", dataset_size=1000, base_epochs=2.0, requested_gpus=8)
        long = make_job(job_id="long", dataset_size=20000, base_epochs=20.0, requested_gpus=8)
        jobs = {"short": short, "long": long}
        proposal = scheduler.on_job_arrival(short, _state(jobs, small_topology))
        # Only one of them fits; it must be the short one.
        assert gpu_count(proposal, "short") == 8
        assert gpu_count(proposal, "long") == 0

    def test_preempts_long_job_for_short_arrival(self, small_topology):
        scheduler = SRTFScheduler()
        long = make_job(job_id="long", dataset_size=20000, base_epochs=20.0, requested_gpus=8)
        long.start_running(0.0, list(range(8)), [16] * 8)
        short = make_job(job_id="short", dataset_size=1000, base_epochs=2.0, requested_gpus=8, arrival_time=1.0)
        allocation = Allocation.from_job_map({"long": [(i, 16) for i in range(8)]})
        jobs = {"long": long, "short": short}
        proposal = scheduler.on_job_arrival(short, _state(jobs, small_topology, allocation, now=1.0))
        assert proposal is not None
        assert gpu_count(proposal, "short") == 8
        assert gpu_count(proposal, "long") == 0

    def test_allows_preemption_capability(self):
        assert SRTFScheduler().capabilities.allows_preemption

    def test_end_to_end(self, tiny_trace):
        result = ClusterSimulator(make_longhorn_cluster(8), SRTFScheduler(), tiny_trace).run()
        assert not result.incomplete

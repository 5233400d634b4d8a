"""Tests for the Optimus baseline."""

import numpy as np
import pytest

from repro.baselines.base import ClusterState
from repro.baselines.optimus import OptimusScheduler, fit_loss_curve
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


class TestLossCurveFit:
    def test_fits_synthetic_optimus_curve(self):
        epochs = np.arange(1, 30, dtype=float)
        a, b, c = 0.3, 0.8, 0.2
        losses = 1.0 / (a * epochs + b) + c
        fit = fit_loss_curve(epochs, losses)
        assert fit is not None
        assert fit[0] == pytest.approx(a, rel=0.1)
        assert fit[2] == pytest.approx(c, rel=0.1)

    def test_too_few_points(self):
        assert fit_loss_curve(np.array([1.0, 2.0]), np.array([1.0, 0.9])) is None

    def test_non_decreasing_curve_rejected(self):
        epochs = np.arange(1, 10, dtype=float)
        assert fit_loss_curve(epochs, np.linspace(0.5, 1.0, 9)) is None


class TestRemainingEstimation:
    def test_default_estimate_without_history(self):
        scheduler = OptimusScheduler()
        job = make_job()
        assert scheduler.estimate_remaining_epochs(job) == scheduler.default_remaining_epochs

    def test_estimate_shrinks_as_training_progresses(self):
        scheduler = OptimusScheduler()
        job = make_running_job(dataset_size=1000, base_epochs=10.0, patience=3)
        estimates = []
        for e in range(12):
            job.advance(1000, 2.0)
            job.complete_epoch(2.0 * (e + 1))
            estimates.append(scheduler.estimate_remaining_epochs(job))
        assert estimates[-1] < estimates[3]


class TestScheduling:
    def test_periodic_interval_matches_paper(self):
        assert OptimusScheduler().timer_interval == pytest.approx(10 * MINUTE)

    def test_arrivals_wait_for_timer(self, small_topology):
        scheduler = OptimusScheduler()
        job = make_job(job_id="a")
        assert scheduler.on_job_arrival(job, _state({"a": job}, small_topology)) is None

    def test_timer_allocates_all_jobs(self, small_topology):
        scheduler = OptimusScheduler()
        jobs = {f"j{i}": make_job(job_id=f"j{i}", arrival_time=0.0) for i in range(3)}
        proposal = scheduler.on_timer(_state(jobs, small_topology, now=600.0))
        assert proposal is not None
        for job_id in jobs:
            assert gpu_count(proposal, job_id) >= 1
        # The greedy loop should hand out every useful GPU.
        assert len(proposal.used_gpus()) > 3

    def test_marginal_gain_prefers_heavier_jobs(self, small_topology):
        scheduler = OptimusScheduler()
        heavy = make_job(job_id="heavy", model_name="vgg16", dataset_size=20000, base_batch=64)
        light = make_job(job_id="light", model_name="resnet18", dataset_size=2000, base_batch=64)
        jobs = {"heavy": heavy, "light": light}
        proposal = scheduler.on_timer(_state(jobs, small_topology, now=600.0))
        assert gpu_count(proposal, "heavy") >= gpu_count(proposal, "light")

    def test_keeps_unchanged_jobs_in_place(self, small_topology):
        scheduler = OptimusScheduler(max_gpus_per_job=1)
        job = make_running_job(job_id="a", gpu_ids=(2,), local_batches=(64,))
        allocation = Allocation.from_job_map({"a": [(2, 64)]})
        proposal = scheduler.on_timer(_state({"a": job}, small_topology, allocation, now=600.0))
        # Same GPU count -> same placement -> nothing to deploy.
        assert proposal is None

    def test_table3_capabilities(self):
        caps = OptimusScheduler().capabilities
        assert caps.strategy == "greedy"
        assert caps.elastic_job_size
        assert not caps.elastic_batch_size

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            OptimusScheduler(scheduling_interval=0)
        with pytest.raises(ValueError):
            OptimusScheduler(max_gpus_per_job=0)

    def test_end_to_end(self, tiny_trace):
        result = ClusterSimulator(make_longhorn_cluster(8), OptimusScheduler(), tiny_trace).run()
        assert not result.incomplete

"""Tests for the DRL baseline."""

import numpy as np
import pytest

from repro.baselines.base import ClusterState
from repro.baselines.drl import (
    NUM_ACTION_FEATURES,
    DRLScheduler,
    PolicyNetwork,
    ReinforceTrainer,
    action_features,
)
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


class TestPolicyNetwork:
    def test_probabilities_sum_to_one(self, rng):
        policy = PolicyNetwork()
        features = rng.normal(size=(5, NUM_ACTION_FEATURES))
        probs = policy.probabilities(features)
        assert probs.shape == (5,)
        assert probs.sum() == pytest.approx(1.0)

    def test_greedy_selects_argmax(self, rng):
        policy = PolicyNetwork(weights=np.zeros(NUM_ACTION_FEATURES))
        policy.weights[0] = 0.0
        features = np.zeros((3, NUM_ACTION_FEATURES))
        features[2, 1] = 10.0
        policy.weights[1] = 1.0
        index, _ = policy.select(features, rng, greedy=True)
        assert index == 2

    def test_grad_log_prob_shape_and_direction(self, rng):
        policy = PolicyNetwork()
        features = rng.normal(size=(4, NUM_ACTION_FEATURES))
        grad = policy.grad_log_prob(features, 1)
        assert grad.shape == (NUM_ACTION_FEATURES,)
        # Moving along the gradient increases the chosen action's probability.
        before = policy.probabilities(features)[1]
        policy.update(grad, learning_rate=0.5)
        after = policy.probabilities(features)[1]
        assert after > before

    def test_invalid_weight_shape(self):
        with pytest.raises(ValueError):
            PolicyNetwork(weights=np.zeros(3))


class TestActionFeatures:
    def test_shape_and_finiteness(self, small_topology):
        job = make_job()
        state = _state({job.job_id: job}, small_topology)
        feats = action_features(job, 2, state)
        assert feats.shape == (NUM_ACTION_FEATURES,)
        assert np.all(np.isfinite(feats))

    def test_waiting_time_feature_grows(self, small_topology):
        job = make_job(arrival_time=0.0)
        early = action_features(job, 1, _state({job.job_id: job}, small_topology, now=0.0))
        late = action_features(job, 1, _state({job.job_id: job}, small_topology, now=300.0))
        assert late[3] > early[3]


class TestDRLScheduler:
    def test_launches_a_pending_job(self, small_topology):
        scheduler = DRLScheduler(seed=0, greedy=True)
        job = make_job(job_id="a")
        proposal = scheduler.on_job_arrival(job, _state({"a": job}, small_topology))
        # The untrained policy is uniform; it may choose the no-op, but if it
        # proposes something it must be a valid launch of the pending job.
        if proposal is not None:
            assert gpu_count(proposal, "a") in scheduler.size_choices

    def test_never_preempts_running_jobs(self, small_topology):
        scheduler = DRLScheduler(seed=0, greedy=True)
        running = make_running_job(job_id="run", gpu_ids=(0, 1), local_batches=(64, 64))
        pending = make_job(job_id="wait", arrival_time=1.0)
        allocation = Allocation.from_job_map({"run": [(0, 64), (1, 64)]})
        proposal = scheduler.on_job_arrival(
            pending, _state({"run": running, "wait": pending}, small_topology, allocation, now=1.0)
        )
        if proposal is not None:
            assert proposal.gpus_of("run") == [0, 1]

    def test_no_feasible_action_returns_none(self, small_topology):
        scheduler = DRLScheduler(seed=0)
        running = make_running_job(job_id="run", gpu_ids=tuple(range(8)), local_batches=(16,) * 8)
        allocation = Allocation.from_job_map({"run": [(i, 16) for i in range(8)]})
        pending = make_job(job_id="wait", arrival_time=1.0)
        proposal = scheduler.on_job_arrival(
            pending, _state({"run": running, "wait": pending}, small_topology, allocation, now=1.0)
        )
        assert proposal is None

    def test_trajectory_recording(self, small_topology):
        scheduler = DRLScheduler(seed=0, greedy=False, record_trajectory=True)
        job = make_job(job_id="a")
        scheduler.on_job_arrival(job, _state({"a": job}, small_topology))
        assert len(scheduler.trajectory) == 1

    def test_table3_capabilities(self):
        caps = DRLScheduler().capabilities
        assert caps.strategy == "dynamic"
        assert not caps.allows_preemption
        assert caps.elastic_job_size
        assert not caps.elastic_batch_size

    def test_end_to_end(self, tiny_trace):
        result = ClusterSimulator(make_longhorn_cluster(8), DRLScheduler(seed=1), tiny_trace).run()
        assert not result.incomplete


class TestReinforceTrainer:
    def test_training_updates_policy(self):
        trainer = ReinforceTrainer(episodes=2, jobs_per_episode=3, num_gpus=8, seed=0)
        policy = trainer.train()
        assert len(trainer.history) == 2
        assert isinstance(policy, PolicyNetwork)
        # At least one episode should have produced non-zero weights.
        assert np.any(policy.weights != 0.0)

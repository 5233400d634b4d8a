"""Deep-reinforcement-learning scheduler (the DRL baseline).

§4.1 of the paper: *"We adopt the basic scheduler design in [Chic] but
modify its action space because we use the All-reduce architecture for
distributed training instead of parameter servers.  The scheduler trains
its scheduling policy based on DRL for purpose of minimizing JCT.  It can
dynamically determine the size of each job.  Only one job can be
rescheduled at each time."*  Per Table 3 the DRL baseline is a dynamic
policy with elastic job size but no preemption and no elastic batch size.

The implementation here is a policy-gradient (REINFORCE) agent:

* the **action space** at each scheduling event is
  ``{(pending job j, GPU count k)} ∪ {no-op}`` — launch one pending job
  with ``k`` workers on idle GPUs; running jobs are never touched
  (no preemption);
* the **policy** is a linear softmax over hand-crafted state/action
  features (waiting time, job size, model cost, cluster occupancy);
* **training** runs complete simulated episodes (small traces on a small
  cluster) and updates the policy with the REINFORCE gradient of the
  negative average JCT, with a moving-average baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import (
    CAPABILITIES,
    ClusterState,
    SchedulerBase,
    allocation_with_job,
    pick_gpus_packed,
    user_local_batch,
)
from repro.cluster.allocation import Allocation
from repro.jobs.job import EpochRecord, Job
from repro.scaling.overhead import ReconfigurationKind
from repro.utils.rng import SeedLike, as_generator

#: Number of features produced by :func:`action_features`.
NUM_ACTION_FEATURES = 8


def action_features(job: Job, num_gpus: int, state: ClusterState) -> np.ndarray:
    """Feature vector of the action "launch ``job`` with ``num_gpus`` workers"."""
    # Occupancy is measured against the *available* capacity, so the
    # policy's features stay meaningful while nodes are down (O(1): this
    # runs once per candidate action per decision step).
    total = state.topology.num_gpus - len(state.unavailable_gpus)
    free = len(state.free_gpus())
    waited = max(0.0, state.now - job.arrival_time)
    return np.array(
        [
            1.0,  # bias
            math.log1p(job.dataset_size) / 12.0,
            math.log1p(job.spec.model.flops_per_sample) / 30.0,
            min(waited / 600.0, 5.0),
            num_gpus / 8.0,
            free / max(total, 1),
            job.spec.requested_gpus / 8.0,
            1.0 if num_gpus == job.spec.requested_gpus else 0.0,
        ],
        dtype=float,
    )


@dataclass
class PolicyNetwork:
    """Linear-softmax policy over scheduling actions."""

    weights: np.ndarray = field(
        default_factory=lambda: np.zeros(NUM_ACTION_FEATURES, dtype=float)
    )

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (NUM_ACTION_FEATURES,):
            raise ValueError(
                f"weights must have shape ({NUM_ACTION_FEATURES},), got {self.weights.shape}"
            )

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        """Softmax action probabilities for a feature matrix (rows = actions)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        logits = features @ self.weights
        logits -= logits.max()
        exp = np.exp(logits)
        return exp / exp.sum()

    def select(
        self, features: np.ndarray, rng: np.random.Generator, greedy: bool = False
    ) -> Tuple[int, np.ndarray]:
        """Pick an action index; returns ``(index, probabilities)``."""
        probs = self.probabilities(features)
        if greedy:
            return int(np.argmax(probs)), probs
        return int(rng.choice(len(probs), p=probs)), probs

    def grad_log_prob(self, features: np.ndarray, action: int) -> np.ndarray:
        """∇_w log π(action | features) for the linear softmax policy."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        probs = self.probabilities(features)
        return features[action] - probs @ features

    def update(self, gradient: np.ndarray, learning_rate: float) -> None:
        """Apply one ascent step on the expected return."""
        self.weights = self.weights + learning_rate * np.asarray(gradient, dtype=float)


class DRLScheduler(SchedulerBase):
    """Policy-gradient scheduler: one launch decision per scheduling event."""

    name = "DRL"
    capabilities = CAPABILITIES["DRL"]
    reconfiguration_kind = ReconfigurationKind.CHECKPOINT

    #: Worker counts the policy may launch a job with.
    size_choices: Tuple[int, ...] = (1, 2, 4, 8)

    def __init__(
        self,
        policy: Optional[PolicyNetwork] = None,
        seed: SeedLike = None,
        greedy: bool = True,
        record_trajectory: bool = False,
    ) -> None:
        self.policy = policy or PolicyNetwork()
        self._rng = as_generator(seed)
        self.greedy = bool(greedy)
        self.record_trajectory = bool(record_trajectory)
        self.trajectory: List[Tuple[np.ndarray, int]] = []

    # -- event callbacks --------------------------------------------------------------------------

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._act(state)

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._act(state)

    def on_epoch_end(
        self, job: Job, record: EpochRecord, state: ClusterState
    ) -> Optional[Allocation]:
        return self._act(state)

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        # The policy only ever launches onto idle GPUs, so recovery is
        # one more decision step over the shrunken (or restored) pool.
        return self._act(state)

    # -- one decision ------------------------------------------------------------------------------

    def _candidate_actions(
        self, state: ClusterState
    ) -> List[Tuple[Job, int, np.ndarray]]:
        """Feasible launch actions: (pending job, gpu count, features).

        The agent is work-conserving: like the Chic design it always acts
        when a pending job fits on idle GPUs, and its policy only decides
        *which* job to launch and at *what* size.  (A learnable "defer"
        action combined with a greedy policy can deadlock an event-driven
        cluster by never launching anything, which no real operator would
        accept.)
        """
        free = state.free_gpus()
        actions: List[Tuple[Job, int, np.ndarray]] = []
        for job in state.pending_jobs().values():
            for size in self.size_choices:
                if size <= len(free):
                    actions.append((job, size, action_features(job, size, state)))
        return actions

    def _act(self, state: ClusterState) -> Optional[Allocation]:
        actions = self._candidate_actions(state)
        if not actions:
            return None  # nothing pending fits on the idle GPUs
        features = np.stack([feat for _, _, feat in actions])
        index, _ = self.policy.select(features, self._rng, greedy=self.greedy)
        if self.record_trajectory:
            self.trajectory.append((features, index))
        job, size, _ = actions[index]
        free = state.free_gpus()
        gpus = pick_gpus_packed(state.topology, free, size)
        if len(gpus) < size:
            return None
        local = user_local_batch(job)
        return allocation_with_job(state.allocation, job, gpus, [local] * size)

    # -- training ------------------------------------------------------------------------------------

    def reset_trajectory(self) -> None:
        """Clear the recorded (features, action) pairs of the last episode."""
        self.trajectory = []


@dataclass
class ReinforceTrainer:
    """REINFORCE training loop for the DRL scheduler.

    Episodes are full simulations of small traces on a small cluster; the
    return is the negative average JCT (so maximising return minimises
    JCT), standardised by a moving-average baseline.
    """

    episodes: int = 20
    jobs_per_episode: int = 12
    num_gpus: int = 16
    learning_rate: float = 0.05
    seed: Optional[int] = 0
    history: List[float] = field(default_factory=list)

    def train(self, policy: Optional[PolicyNetwork] = None) -> PolicyNetwork:
        """Run the training loop and return the trained policy."""
        # Imported lazily to avoid a circular import at package-load time.
        from repro.cluster.topology import make_longhorn_cluster
        from repro.sim.simulator import ClusterSimulator, SimulationConfig
        from repro.workload.trace import TraceConfig, TraceGenerator

        policy = policy or PolicyNetwork()
        rng = as_generator(self.seed)
        baseline: Optional[float] = None
        for episode in range(self.episodes):
            trace = TraceGenerator(
                TraceConfig(num_jobs=self.jobs_per_episode, arrival_rate=1.0 / 20.0),
                seed=int(rng.integers(2**31)),
            ).generate()
            scheduler = DRLScheduler(
                policy=policy,
                seed=int(rng.integers(2**31)),
                greedy=False,
                record_trajectory=True,
            )
            topology = make_longhorn_cluster(self.num_gpus)
            result = ClusterSimulator(
                topology,
                scheduler,
                trace,
                config=SimulationConfig(max_time=24 * 3600.0),
            ).run()
            if result.completed:
                avg_jct = result.average_jct
            else:
                avg_jct = result.makespan
            reward = -avg_jct / 1000.0
            self.history.append(avg_jct)
            if baseline is None:
                baseline = reward
            advantage = reward - baseline
            baseline = 0.9 * baseline + 0.1 * reward
            if scheduler.trajectory:
                gradient = np.zeros_like(policy.weights)
                for features, action in scheduler.trajectory:
                    gradient += policy.grad_log_prob(features, action)
                gradient *= advantage / len(scheduler.trajectory)
                policy.update(gradient, self.learning_rate)
        return policy

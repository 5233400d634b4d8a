"""Optimus: greedy marginal-gain resource allocation on a fixed interval.

Optimus (Peng et al., EuroSys'18) periodically (every 10 minutes in the
paper and in this reproduction) re-divides the cluster among the active
jobs: it estimates each job's remaining work by fitting its loss curve,
builds a resource→speed model, and greedily assigns one GPU at a time to
the job whose estimated completion time drops the most, until the
cluster is full or no job benefits.

Per Table 3 it is a **greedy** scheduler with **elastic job size**
(worker counts change between rounds) but a **fixed batch size**
(fixed per-worker batch, so the global batch grows with the worker
count and the learning rate is not re-scaled), and it relies on
checkpoint-based migration to apply re-configurations — both of which
are the costs ONES's evaluation highlights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import optimize

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
from repro.jobs.throughput import split_batch
from repro.scaling.overhead import ReconfigurationKind
from repro.utils.units import MINUTE


def fit_loss_curve(epochs: np.ndarray, losses: np.ndarray) -> Optional[Tuple[float, float, float]]:
    """Fit Optimus's convergence model ``loss(k) = 1 / (a·k + b) + c``.

    Returns ``(a, b, c)`` or ``None`` when the fit fails or is degenerate
    (fewer than three points, or a non-decreasing loss curve).
    """
    epochs = np.asarray(epochs, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if epochs.size < 3 or losses.size != epochs.size:
        return None
    if losses[-1] >= losses[0]:
        return None

    def model(k, a, b, c):
        return 1.0 / (a * k + b) + c

    try:
        initial = (0.1, 1.0 / max(losses[0], 1e-6), max(losses[-1] * 0.5, 1e-3))
        params, _ = optimize.curve_fit(
            model,
            epochs,
            losses,
            p0=initial,
            bounds=([1e-6, 1e-6, 0.0], [np.inf, np.inf, np.inf]),
            maxfev=2000,
        )
    except (RuntimeError, ValueError):
        return None
    a, b, c = (float(v) for v in params)
    if not all(math.isfinite(v) for v in (a, b, c)):
        return None
    return a, b, c


class OptimusScheduler(SchedulerBase):
    """Periodic greedy marginal-gain allocation with loss-curve prediction."""

    name = "Optimus"
    capabilities = CAPABILITIES["Optimus"]
    reconfiguration_kind = ReconfigurationKind.CHECKPOINT
    timer_interval: Optional[float] = 10.0 * MINUTE

    def __init__(
        self,
        scheduling_interval: float = 10.0 * MINUTE,
        max_gpus_per_job: int = 16,
        default_remaining_epochs: float = 20.0,
        convergence_epsilon: float = 0.05,
    ) -> None:
        if scheduling_interval <= 0:
            raise ValueError("scheduling_interval must be > 0")
        if max_gpus_per_job < 1:
            raise ValueError("max_gpus_per_job must be >= 1")
        self.timer_interval = float(scheduling_interval)
        self.max_gpus_per_job = int(max_gpus_per_job)
        self.default_remaining_epochs = float(default_remaining_epochs)
        self.convergence_epsilon = float(convergence_epsilon)

    # -- remaining-work estimation -----------------------------------------------------------------

    def estimate_remaining_epochs(self, job: Job) -> float:
        """Predicted epochs to convergence from the job's loss history."""
        records = job.epoch_records
        if len(records) < 3:
            return self.default_remaining_epochs
        epochs = np.asarray([r.epoch_index for r in records], dtype=float)
        losses = np.asarray([r.loss for r in records], dtype=float)
        fit = fit_loss_curve(epochs, losses)
        if fit is None:
            return self.default_remaining_epochs
        a, b, c = fit
        # Converged when the fitted loss is within epsilon of its asymptote:
        # 1 / (a·k + b) < eps  →  k > (1/eps − b) / a.
        eps = max(self.convergence_epsilon * job.initial_loss, 1e-6)
        k_converged = (1.0 / eps - b) / a
        remaining = k_converged - job.epochs_completed + job.spec.convergence_patience
        return float(np.clip(remaining, 1.0, 500.0))

    def estimate_remaining_samples(self, job: Job) -> float:
        """Remaining samples = remaining epochs × epoch size."""
        return self.estimate_remaining_epochs(job) * job.dataset_size

    # -- speed model ------------------------------------------------------------------------------------

    def _speed(self, job: Job, num_gpus: int, state: ClusterState) -> float:
        """Model-predicted throughput at ``num_gpus`` workers, fixed local batch."""
        if num_gpus <= 0:
            return 0.0
        local = user_local_batch(job)
        gpus = pick_gpus_packed(state.topology, state.available_gpu_ids(), num_gpus)
        if len(gpus) < num_gpus:
            return 0.0
        return state.throughput_model.throughput(job.spec.model, [local] * num_gpus, gpus)

    # -- event callbacks ----------------------------------------------------------------------------------

    def on_timer(self, state: ClusterState) -> Optional[Allocation]:
        return self._reschedule(state)

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        # Freed GPUs stay idle until the next periodic round — this is the
        # behaviour the paper criticises; keep it faithful.
        return None

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        # Arrivals wait for the next scheduling round as well.
        return None

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        # A capacity change is worth an immediate greedy round: the
        # periodic interval is tuned for workload drift, not for losing
        # (or regaining) whole servers.
        return self._reschedule(state)

    # -- the greedy round ------------------------------------------------------------------------------------

    def _reschedule(self, state: ClusterState) -> Optional[Allocation]:
        jobs = list(state.active_jobs().values())
        if not jobs:
            return None
        num_gpus = len(state.available_gpu_ids())
        if num_gpus == 0:
            return None
        remaining = {j.job_id: self.estimate_remaining_samples(j) for j in jobs}

        # Start from one GPU per job (arrival order) for fairness.
        target: Dict[str, int] = {}
        budget = num_gpus
        for job in sorted(jobs, key=lambda j: (j.arrival_time, j.job_id)):
            if budget <= 0:
                target[job.job_id] = 0
                continue
            target[job.job_id] = 1
            budget -= 1

        # Greedy marginal-gain loop: give the next GPU to the job whose
        # estimated remaining time decreases the most.
        while budget > 0:
            best_job, best_gain = None, 0.0
            for job in jobs:
                count = target[job.job_id]
                if count == 0 or count >= self.max_gpus_per_job:
                    continue
                speed_now = self._speed(job, count, state)
                speed_next = self._speed(job, count + 1, state)
                if speed_now <= 0 or speed_next <= 0:
                    continue
                work = remaining[job.job_id]
                gain = work / speed_now - work / speed_next
                if gain > best_gain:
                    best_gain, best_job = gain, job
            if best_job is None or best_gain <= 0:
                break
            target[best_job.job_id] += 1
            budget -= 1

        return self._place(state, jobs, target)

    def _place(
        self, state: ClusterState, jobs: List[Job], target: Dict[str, int]
    ) -> Optional[Allocation]:
        """Materialise GPU counts into an allocation, minimising churn."""
        allocation = Allocation.empty()
        free = state.available_gpu_ids()
        # First pass: jobs whose GPU count is unchanged keep their placement.
        moved: List[Job] = []
        for job in sorted(jobs, key=lambda j: (j.arrival_time, j.job_id)):
            want = target.get(job.job_id, 0)
            if want <= 0:
                continue
            current = state.allocation.config_of(job.job_id)
            if current is not None and current.num_gpus == want:
                allocation = allocation_with_job(
                    allocation, job, current.gpu_ids, current.local_batches
                )
                free = [g for g in free if g not in set(current.gpu_ids)]
            else:
                moved.append(job)
        # Second pass: (re)place resized jobs on the remaining GPUs.
        for job in moved:
            want = min(target[job.job_id], len(free))
            if want <= 0:
                continue
            gpus = pick_gpus_packed(state.topology, free, want)
            local = user_local_batch(job)
            allocation = allocation_with_job(allocation, job, gpus, [local] * len(gpus))
            free = [g for g in free if g not in set(gpus)]
        if allocation == state.allocation:
            return None
        return allocation

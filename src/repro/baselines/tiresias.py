"""Tiresias: discretised Least-Attained-Service scheduling.

Tiresias (Gu et al., NSDI'19) reduces average JCT without any knowledge
of job durations by prioritising jobs with the *least attained service*
(GPU-time consumed so far), discretised into a small number of priority
queues to limit preemption churn.  Per Table 3 of the ONES paper, the
baseline configuration here:

* keeps every job at its **fixed, user-requested GPU count** (no elastic
  job size),
* uses a **fixed batch size** (no elastic batch size),
* **allows preemption**: a long-running job can be preempted when
  lower-attained-service jobs are waiting,
* is a **greedy** policy — it sorts jobs by (queue level, arrival time)
  and gang-allocates in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
from repro.utils.units import HOUR


class TiresiasScheduler(SchedulerBase):
    """Discretised 2D-LAS multi-level feedback queue (Tiresias-L)."""

    name = "Tiresias"
    capabilities = CAPABILITIES["Tiresias"]
    reconfiguration_kind = ReconfigurationKind.CHECKPOINT

    def __init__(self, queue_thresholds: Sequence[float] = (0.25 * HOUR, 1.0 * HOUR)) -> None:
        """``queue_thresholds`` are attained-service (GPU-seconds) promotion bounds.

        A job with attained service below the first threshold sits in the
        highest-priority queue; beyond the last threshold it falls into the
        lowest-priority queue.  The defaults are scaled-down versions of
        the thresholds in the Tiresias paper, matching the shorter jobs of
        the ONES trace.
        """
        thresholds = [float(t) for t in queue_thresholds]
        if any(t <= 0 for t in thresholds) or sorted(thresholds) != thresholds:
            raise ValueError("queue_thresholds must be positive and increasing")
        self.queue_thresholds = thresholds
        self._last_levels: dict[str, int] = {}

    # -- queue levels ------------------------------------------------------------------------

    def queue_level(self, job: Job, now: float) -> int:
        """Discretised priority level (0 = highest priority)."""
        attained = job.attained_service
        if job.is_running:
            # Include the service of the currently open interval.
            attained += job.num_gpus * max(0.0, now - job.run_intervals[-1].start)
        for level, threshold in enumerate(self.queue_thresholds):
            if attained < threshold:
                return level
        return len(self.queue_thresholds)

    # -- event callbacks -----------------------------------------------------------------------

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._reschedule(state)

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._reschedule(state)

    def on_epoch_end(
        self, job: Job, record: EpochRecord, state: ClusterState
    ) -> Optional[Allocation]:
        # Re-evaluate only when some job crossed a queue threshold (the
        # discretisation exists precisely to avoid continuous preemption).
        levels = {
            job_id: self.queue_level(j, state.now)
            for job_id, j in state.active_jobs().items()
        }
        if levels != self._last_levels:
            self._last_levels = levels
            return self._reschedule(state)
        return None

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        # Evicted jobs keep their attained service, so they re-enter the
        # 2D-LAS order exactly where the queues place them.
        return self._reschedule(state)

    # -- core policy -------------------------------------------------------------------------------

    def _priority_order(self, state: ClusterState) -> List[Job]:
        """Jobs ordered by (queue level, arrival time) — the 2D-LAS order."""
        jobs = list(state.active_jobs().values())
        return sorted(
            jobs,
            key=lambda j: (self.queue_level(j, state.now), j.arrival_time, j.job_id),
        )

    def _reschedule(self, state: ClusterState) -> Optional[Allocation]:
        order = self._priority_order(state)
        allocation = Allocation.empty()
        free = state.available_gpu_ids()
        for job in order:
            want = job.spec.requested_gpus
            if want > len(free):
                continue  # gang scheduling: skip jobs that do not fit
            current = state.allocation.config_of(job.job_id)
            if current is not None and all(g in set(free) for g in current.gpu_ids):
                # Keep an already-running job on its GPUs to avoid a
                # needless checkpoint/restart cycle.
                gpus = list(current.gpu_ids)
                batches = list(current.local_batches)
            else:
                gpus = pick_gpus_packed(state.topology, free, want)
                batches = [user_local_batch(job)] * want
            allocation = allocation_with_job(allocation, job, gpus, batches)
            free = [g for g in free if g not in set(gpus)]
        self._last_levels = {
            job_id: self.queue_level(j, state.now)
            for job_id, j in state.active_jobs().items()
        }
        if allocation == state.allocation:
            return None
        return allocation

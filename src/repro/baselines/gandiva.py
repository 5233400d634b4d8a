"""Gandiva-style introspective time-slicing baseline.

Gandiva (Xiao et al., OSDI'18) is discussed in the paper's related work
(§5): it time-slices GPUs across jobs in rounds and continuously packs /
migrates jobs to improve locality.  It is not one of the paper's three
evaluated baselines, but it is the canonical "time-sharing-based slicing
strategy" the introduction contrasts against, so this reproduction ships
it as an *additional* reference scheduler for ablations and extensions.

The implementation models Gandiva's suspend/resume time-slicing at the
granularity the simulator supports (whole-job suspend/resume, not
intra-minibatch context switching):

* every job runs at its user-requested size with a fixed batch size,
* when demand exceeds capacity, jobs share the cluster in round-robin
  *time slices* of a configurable quantum (Gandiva's default round is of
  the order of a minute),
* placement prefers packing a job's workers onto as few nodes as
  possible, and at every rescheduling point jobs with poor locality are
  migrated onto better-packed GPUs if any are available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.base import (
    CAPABILITIES,
    ClusterState,
    SchedulerBase,
    allocation_with_job,
    pick_gpus_packed,
    user_local_batch,
)
from repro.cluster.allocation import Allocation
from repro.cluster.placement import placement_quality
from repro.jobs.job import EpochRecord, Job
from repro.scaling.overhead import ReconfigurationKind
from repro.utils.units import MINUTE
from repro.utils.validation import check_positive


class GandivaScheduler(SchedulerBase):
    """Round-based time-slicing with locality-aware packing."""

    name = "Gandiva"
    capabilities = CAPABILITIES["Gandiva"]
    reconfiguration_kind = ReconfigurationKind.CHECKPOINT
    timer_interval: Optional[float] = 1.0 * MINUTE

    def __init__(
        self,
        time_quantum: float = 1.0 * MINUTE,
        migration_quality_threshold: float = 0.75,
    ) -> None:
        """``time_quantum`` is the round length of the time-slicing loop.

        ``migration_quality_threshold`` is the locality score below which a
        running job becomes a candidate for migration onto better-packed
        GPUs (Gandiva's introspective packing).
        """
        check_positive(time_quantum, "time_quantum")
        if not 0.0 < migration_quality_threshold <= 1.0:
            raise ValueError("migration_quality_threshold must be in (0, 1]")
        self.timer_interval = float(time_quantum)
        self.migration_quality_threshold = float(migration_quality_threshold)
        # Round-robin cursor over job ids, so every job eventually gets a slice.
        self._rr_cursor: int = 0

    # -- event callbacks -------------------------------------------------------------------

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        # A new arrival may start immediately if idle GPUs can host it; a
        # full re-slicing happens only at round boundaries.
        free = state.free_gpus()
        want = job.spec.requested_gpus
        if want > len(free):
            return None
        gpus = pick_gpus_packed(state.topology, free, want)
        local = user_local_batch(job)
        return allocation_with_job(state.allocation, job, gpus, [local] * want)

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._reslice(state)

    def on_epoch_end(
        self, job: Job, record: EpochRecord, state: ClusterState
    ) -> Optional[Allocation]:
        return None  # slicing happens on the timer, not on progress updates

    def on_timer(self, state: ClusterState) -> Optional[Allocation]:
        return self._reslice(state)

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        # Start a fresh slicing round over the surviving GPUs right away
        # instead of waiting out the current quantum.
        return self._reslice(state)

    # -- the round-robin slicing round -----------------------------------------------------------

    def _round_robin_order(self, state: ClusterState) -> List[Job]:
        """Active jobs in round-robin order starting at the rotating cursor."""
        jobs = sorted(state.active_jobs().values(), key=lambda j: (j.arrival_time, j.job_id))
        if not jobs:
            return []
        start = self._rr_cursor % len(jobs)
        self._rr_cursor += 1
        return jobs[start:] + jobs[:start]

    def _reslice(self, state: ClusterState) -> Optional[Allocation]:
        """Grant the next round of time slices and re-pack poorly placed jobs."""
        order = self._round_robin_order(state)
        if not order:
            return None
        allocation = Allocation.empty()
        free = state.available_gpu_ids()

        # First keep well-placed running jobs where they are (avoids
        # pointless checkpoint/restart churn), as long as they keep their
        # slice this round.
        keep: Dict[str, Job] = {}
        for job in order:
            current = state.allocation.config_of(job.job_id)
            if current is None:
                continue
            quality = placement_quality(state.topology, current.gpu_ids)
            if quality >= self.migration_quality_threshold:
                keep[job.job_id] = job

        granted = 0
        for job in order:
            want = job.spec.requested_gpus
            current = state.allocation.config_of(job.job_id)
            if job.job_id in keep and current is not None:
                if all(g in free for g in current.gpu_ids):
                    allocation = allocation_with_job(
                        allocation, job, current.gpu_ids, current.local_batches
                    )
                    free = [g for g in free if g not in set(current.gpu_ids)]
                    granted += 1
                    continue
            if want > len(free):
                continue  # this job waits for the next round
            gpus = pick_gpus_packed(state.topology, free, want)
            local = user_local_batch(job)
            allocation = allocation_with_job(allocation, job, gpus, [local] * want)
            free = [g for g in free if g not in set(gpus)]
            granted += 1

        if granted == 0 or allocation == state.allocation:
            return None
        return allocation

"""Shortest-Remaining-Time-First (oracle) scheduler.

§3.2.1 motivates the SRUF objective by noting that *"serving the job
with the shortest remaining processing time (SRPT) is the solution"* to
minimising average JCT when remaining times are known.  This scheduler
implements that idealised policy with **oracle knowledge** of each job's
remaining epochs (it reads the ground-truth convergence profile, which
no online scheduler could).  It serves as an optimistic reference point
in ablation studies and as a sanity check that the simulator rewards
short-job-first behaviour; it is not one of the paper's baselines.
"""

from __future__ import annotations

from typing import Optional

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


class SRTFScheduler(SchedulerBase):
    """Preemptive shortest-remaining-time-first with oracle estimates."""

    name = "SRTF-oracle"
    capabilities = CAPABILITIES["SRTF"]
    reconfiguration_kind = ReconfigurationKind.CHECKPOINT

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._reschedule(state)

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._reschedule(state)

    def on_epoch_end(
        self, job: Job, record: EpochRecord, state: ClusterState
    ) -> Optional[Allocation]:
        # Remaining times only shrink as epochs complete; the relative
        # order rarely changes mid-epoch, so re-evaluate only every few
        # epochs to limit preemption churn.
        if record.epoch_index % 5 == 0:
            return self._reschedule(state)
        return None

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        # Capacity changed: re-rank everything over the surviving GPUs.
        return self._reschedule(state)

    # -- oracle remaining time -------------------------------------------------------------

    def _remaining_time(self, job: Job, state: ClusterState) -> float:
        """Ground-truth remaining seconds at the user's configuration."""
        profile = job.spec.convergence
        target_epochs = profile.epochs_to_target(
            max(job.spec.base_batch, 1), lr_scaled=False
        )
        total_epochs = target_epochs + job.spec.convergence_patience
        remaining_epochs = max(0.0, total_epochs - job.epochs_completed)
        remaining_samples = remaining_epochs * job.dataset_size
        throughput = state.observed_or_estimated_throughput(job)
        if throughput <= 0:
            return float("inf")
        return remaining_samples / throughput

    # -- scheduling ---------------------------------------------------------------------------

    def _reschedule(self, state: ClusterState) -> Optional[Allocation]:
        jobs = list(state.active_jobs().values())
        if not jobs:
            return None
        order = sorted(jobs, key=lambda j: (self._remaining_time(j, state), j.arrival_time))
        allocation = Allocation.empty()
        free = state.available_gpu_ids()
        for job in order:
            want = job.spec.requested_gpus
            if want > len(free):
                continue
            gpus = pick_gpus_packed(state.topology, free, want)
            local = user_local_batch(job)
            allocation = allocation_with_job(allocation, job, gpus, [local] * want)
            free = [g for g in free if g not in set(gpus)]
        if allocation == state.allocation:
            return None
        return allocation

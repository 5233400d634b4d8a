"""First-In-First-Out gang scheduler.

The simplest reference policy: jobs are served strictly in arrival
order, each with exactly the GPU count the user requested (gang
scheduling), a fixed per-GPU batch size and no preemption.  It is not a
baseline from the paper's evaluation, but it is the behaviour most
cluster managers default to and is useful as a floor in ablations and as
a simple scheduler for unit tests.
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


class FIFOScheduler(SchedulerBase):
    """Strict arrival-order gang scheduling with fixed job sizes."""

    name = "FIFO"
    capabilities = CAPABILITIES["FIFO"]
    reconfiguration_kind = ReconfigurationKind.CHECKPOINT

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._fill(state)

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        return self._fill(state)

    def on_epoch_end(
        self, job: Job, record: EpochRecord, state: ClusterState
    ) -> Optional[Allocation]:
        # FIFO never reacts to progress updates.
        return None

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        # Evicted jobs rejoin the queue at their original arrival rank;
        # recovery is just another fill pass over the surviving GPUs.
        return self._fill(state)

    def _fill(self, state: ClusterState) -> Optional[Allocation]:
        """Launch pending jobs in arrival order while they fit."""
        allocation = state.allocation
        free = allocation.free_gpus(state.available_gpu_ids())
        changed = False
        for job in state.pending_jobs().values():
            want = job.spec.requested_gpus
            if want > len(free):
                # Strict FIFO: the head of the queue blocks everyone behind it.
                break
            gpus = pick_gpus_packed(state.topology, free, want)
            local = user_local_batch(job)
            allocation = allocation_with_job(allocation, job, gpus, [local] * want)
            free = [g for g in free if g not in set(gpus)]
            changed = True
        return allocation if changed else None

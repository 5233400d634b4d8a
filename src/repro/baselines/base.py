"""The scheduler interface shared by ONES and all baselines.

A scheduler is an event-driven policy: the simulator notifies it of job
arrivals, epoch completions, job completions and (optionally) periodic
timers, and the scheduler may respond with a new
:class:`repro.cluster.allocation.Allocation` to deploy.  Returning
``None`` keeps the current allocation.

The :class:`ClusterState` passed to every callback is a read-only view
of everything a real scheduler could observe: the topology, the
currently-deployed allocation, and the live :class:`repro.jobs.job.Job`
objects with their measured throughput and progress reports.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.topology import ClusterTopology
from repro.jobs.job import EpochRecord, Job, JobStatus
from repro.jobs.throughput import ThroughputModel
from repro.scaling.overhead import ReconfigurationKind


@dataclass(frozen=True)
class SchedulerCapabilities:
    """The capability matrix of Table 3."""

    strategy: str  # "dynamic" or "greedy"
    allows_preemption: bool
    elastic_job_size: bool
    elastic_batch_size: bool

    def __post_init__(self) -> None:
        if self.strategy not in ("dynamic", "greedy"):
            raise ValueError("strategy must be 'dynamic' or 'greedy'")

    def as_row(self) -> Dict[str, str]:
        """Render the capabilities as a Table-3 row."""
        yn = lambda flag: "Y" if flag else "N"
        return {
            "Greedy/Dynamic Strategy": self.strategy.capitalize(),
            "Allow Preemption": yn(self.allows_preemption),
            "Elastic Job Size": yn(self.elastic_job_size),
            "Elastic Batch Size": yn(self.elastic_batch_size),
        }


#: Table 3 (plus the reference policies), keyed by registry name.  The
#: scheduler classes and their registry entries both read their row here,
#: so the registry can list a scheduler without importing its module.
CAPABILITIES: Dict[str, SchedulerCapabilities] = {
    "ONES": SchedulerCapabilities(
        strategy="dynamic", allows_preemption=True,
        elastic_job_size=True, elastic_batch_size=True,
    ),
    "ONES-hier": SchedulerCapabilities(
        strategy="dynamic", allows_preemption=True,
        elastic_job_size=True, elastic_batch_size=True,
    ),
    "DRL": SchedulerCapabilities(
        strategy="dynamic", allows_preemption=False,
        elastic_job_size=True, elastic_batch_size=False,
    ),
    "Tiresias": SchedulerCapabilities(
        strategy="greedy", allows_preemption=True,
        elastic_job_size=False, elastic_batch_size=False,
    ),
    "Optimus": SchedulerCapabilities(
        strategy="greedy", allows_preemption=True,
        elastic_job_size=True, elastic_batch_size=False,
    ),
    "Gandiva": SchedulerCapabilities(
        strategy="greedy", allows_preemption=True,
        elastic_job_size=False, elastic_batch_size=False,
    ),
    "FIFO": SchedulerCapabilities(
        strategy="greedy", allows_preemption=False,
        elastic_job_size=False, elastic_batch_size=False,
    ),
    "SRTF": SchedulerCapabilities(
        strategy="greedy", allows_preemption=True,
        elastic_job_size=False, elastic_batch_size=False,
    ),
}


@dataclass
class ClusterState:
    """Read-only snapshot handed to scheduler callbacks.

    Freshness contract: the simulator keeps per-job progress in a
    vectorized ledger between events (:mod:`repro.sim.ledger`) and
    materializes it back into the ``Job`` objects immediately before a
    snapshot is built — so within a callback every job attribute is
    exact for ``now``.  Do *not* stash ``Job`` references and read their
    progress outside a callback: between events they may lag behind the
    ledger until the next materialization point.

    Job contract: the simulator passes ``jobs`` as its index of admitted,
    uncompleted jobs in admission order — never the jobs that already
    finished — so the job views below cost O(live jobs), however long
    the run.  ``on_job_completion`` therefore receives the completing
    job as its callback argument only; it is no longer in ``jobs``.  The
    views still filter on status and arrival time, so hand-built states
    that hold finished or future jobs read the same.

    Snapshot contract: :meth:`active_jobs` is computed once per snapshot,
    on the first call, and every later call (including those inside
    :meth:`running_jobs` and :meth:`pending_jobs`) returns that same
    dict, which callers must not mutate.  The simulator builds a fresh
    snapshot for every callback; a snapshot is not reused after a job is
    admitted or completed, since its cached view would then be stale.

    Availability contract: ``unavailable_gpus`` holds the GPUs of nodes
    that are currently down (fault injection,
    :mod:`repro.faults`).  Schedulers must place workers only on
    *available* GPUs — :meth:`available_gpu_ids` and :meth:`free_gpus`
    already exclude the down ones, so policies built on them are
    fault-aware for free; the simulator rejects any proposal touching an
    unavailable GPU.
    """

    now: float
    topology: ClusterTopology
    throughput_model: ThroughputModel
    allocation: Allocation
    jobs: Dict[str, Job]
    unavailable_gpus: FrozenSet[int] = frozenset()
    _active: Optional[Dict[str, Job]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- job views ------------------------------------------------------------------

    def active_jobs(self) -> Dict[str, Job]:
        """Jobs that have arrived and not yet completed (shared; do not mutate)."""
        active = self._active
        if active is None:
            active = {
                job_id: job
                for job_id, job in self.jobs.items()
                if job.status is not JobStatus.COMPLETED and job.arrival_time <= self.now
            }
            self._active = active
        return active

    def running_jobs(self) -> Dict[str, Job]:
        """Jobs currently holding at least one GPU."""
        return {j: job for j, job in self.active_jobs().items() if job.is_running}

    def pending_jobs(self) -> Dict[str, Job]:
        """Jobs waiting for an allocation, ordered by arrival time."""
        pending = {
            j: job for j, job in self.active_jobs().items() if not job.is_running
        }
        return dict(sorted(pending.items(), key=lambda kv: (kv[1].arrival_time, kv[0])))

    def available_gpu_ids(self) -> List[int]:
        """GPU ids that are physically up (ascending); the schedulable set."""
        if not self.unavailable_gpus:
            return [int(g) for g in self.topology.all_gpu_ids()]
        return [
            int(g)
            for g in self.topology.all_gpu_ids()
            if int(g) not in self.unavailable_gpus
        ]

    def free_gpus(self) -> List[int]:
        """Idle *and available* GPU ids under the deployed allocation."""
        free = self.allocation.free_gpus(self.topology.all_gpu_ids())
        if not self.unavailable_gpus:
            return free
        return [g for g in free if g not in self.unavailable_gpus]

    # -- throughput helpers -----------------------------------------------------------

    def observed_or_estimated_throughput(self, job: Job) -> float:
        """Measured throughput when available, model estimate otherwise."""
        if job.throughput_profile.count > 0 and job.measured_throughput > 0:
            return job.measured_throughput
        config = self.allocation.config_of(job.job_id)
        if config is not None:
            return self.throughput_model.throughput(
                job.spec.model, list(config.local_batches), list(config.gpu_ids)
            )
        # Fall back to a single-GPU estimate at the user's batch size.
        local = min(user_local_batch(job), job.spec.max_local_batch)
        return self.throughput_model.throughput(job.spec.model, [local], [0])


class SchedulerBase(abc.ABC):
    """Abstract scheduler: event callbacks that may propose new allocations."""

    #: Human-readable name used in reports.
    name: str = "scheduler"
    #: Table-3 capabilities; subclasses must override.
    capabilities: SchedulerCapabilities = SchedulerCapabilities(
        strategy="greedy",
        allows_preemption=False,
        elastic_job_size=False,
        elastic_batch_size=False,
    )
    #: How re-configurations of running jobs are executed (Fig. 16).
    reconfiguration_kind: ReconfigurationKind = ReconfigurationKind.CHECKPOINT
    #: If set, the simulator fires a periodic timer every this many seconds.
    timer_interval: Optional[float] = None

    # -- event callbacks -------------------------------------------------------------------

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        """A new job was submitted."""
        return None

    def on_epoch_end(
        self, job: Job, record: EpochRecord, state: ClusterState
    ) -> Optional[Allocation]:
        """A running job finished a training epoch and uploaded progress."""
        return None

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        """A job converged; its GPUs have already been released in ``state``."""
        return None

    def on_timer(self, state: ClusterState) -> Optional[Allocation]:
        """Periodic rescheduling tick (only fired when ``timer_interval`` is set)."""
        return None

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        """The cluster's capacity just changed (node down or back up).

        Called by the fault handlers *after* affected jobs have been
        evicted and ``state`` reflects the new availability.  Concrete
        schedulers override this to run their normal rescheduling pass
        (the whole point of the fault harness is that recovery flows
        through the same policy logic as scheduling); the default keeps
        the current allocation and waits for the next regular event.
        """
        return None

    # -- convenience -----------------------------------------------------------------------

    def lr_is_scaled(self) -> bool:
        """Whether jobs run with batch-size-scaled learning rates under this scheduler."""
        return self.capabilities.elastic_batch_size

    def describe(self) -> Dict[str, str]:
        """Name plus Table-3 capability row."""
        row = {"Scheduler": self.name}
        row.update(self.capabilities.as_row())
        return row


# --- shared helpers used by several schedulers ---------------------------------------------


def user_local_batch(job: Job) -> int:
    """The per-GPU batch size implied by the user's submission.

    Users submit a global batch tuned for ``requested_gpus`` workers; the
    common fixed-local-batch practice keeps ``base_batch / requested_gpus``
    samples per GPU regardless of how many GPUs the scheduler grants.
    """
    local = max(1, job.spec.base_batch // max(1, job.spec.requested_gpus))
    return min(local, job.spec.max_local_batch)


def pick_gpus_packed(
    topology: ClusterTopology, free_gpus: Sequence[int], count: int
) -> List[int]:
    """Choose ``count`` GPUs from ``free_gpus`` minimising the servers spanned.

    Nodes with the most free GPUs are filled first, so multi-GPU jobs
    stay inside as few servers as possible (good all-reduce locality).
    Returns fewer than ``count`` ids when not enough GPUs are free.
    """
    if count <= 0:
        return []
    free = [int(g) for g in free_gpus]
    if not free:
        return []
    by_node: Dict[int, List[int]] = {}
    for gpu in free:
        by_node.setdefault(int(topology.node_of(gpu)), []).append(gpu)
    # Sort nodes by how many free GPUs they have (descending), then by id
    # for determinism; within a node keep ascending GPU ids.
    ordered_nodes = sorted(by_node.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    chosen: List[int] = []
    for _, gpus in ordered_nodes:
        for gpu in sorted(gpus):
            if len(chosen) >= count:
                return chosen
            chosen.append(gpu)
    return chosen


def allocation_with_job(
    base: Allocation,
    job: Job,
    gpu_ids: Sequence[int],
    local_batches: Sequence[int],
) -> Allocation:
    """Return a copy of ``base`` with ``job`` (re)placed on ``gpu_ids``."""
    gpu_ids = [int(g) for g in gpu_ids]
    if len(gpu_ids) != len(local_batches):
        raise ValueError("gpu_ids and local_batches must align")
    mapping = base.as_dict()
    # Remove the job's previous workers.
    mapping = {g: w for g, w in mapping.items() if w[0] != job.job_id}
    for gpu, batch in zip(gpu_ids, local_batches):
        if gpu in mapping:
            raise ValueError(
                f"GPU {gpu} is already occupied by job {mapping[gpu][0]!r}"
            )
        mapping[gpu] = (job.job_id, int(batch))
    return Allocation.from_job_map(_group_by_job(mapping))


def _group_by_job(mapping: Dict[int, Tuple[str, int]]) -> Dict[str, List[Tuple[int, int]]]:
    grouped: Dict[str, List[Tuple[int, int]]] = {}
    for gpu, (job_id, batch) in mapping.items():
        grouped.setdefault(job_id, []).append((gpu, batch))
    return grouped

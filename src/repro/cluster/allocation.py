"""Concrete GPU allocations.

An :class:`Allocation` is the *deployed* counterpart of the schedule
genome (:class:`repro.core.schedule.Schedule`): a mapping from GPU id to
the worker running on it, where a worker is a ``(job_id, local batch
size)`` pair.  The simulator holds exactly one allocation at a time; the
scheduler proposes new ones and the simulator diffs them to decide which
jobs must be re-configured (and charged scaling overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple



@dataclass(frozen=True)
class WorkerAssignment:
    """One worker: a job replica with its per-GPU (local) batch size."""

    job_id: str
    local_batch: int

    def __post_init__(self) -> None:
        if not isinstance(self.job_id, str) or not self.job_id:
            raise ValueError("job_id must be a non-empty string")
        if int(self.local_batch) < 1:
            raise ValueError(
                f"local_batch must be >= 1 for a placed worker, got {self.local_batch}"
            )
        object.__setattr__(self, "local_batch", int(self.local_batch))


@dataclass(frozen=True)
class JobConfig:
    """The resource configuration of one job inside an allocation."""

    job_id: str
    gpu_ids: Tuple[int, ...]
    local_batches: Tuple[int, ...]

    @property
    def num_gpus(self) -> int:
        """Number of GPUs allocated to the job (``c_j`` in the paper)."""
        return len(self.gpu_ids)

class Allocation:
    """An immutable assignment of jobs (with local batch sizes) to GPUs.

    The one-job-per-GPU constraint of Eq. 4 is enforced structurally: the
    underlying mapping has at most one worker per GPU id.

    Per-job queries (:meth:`gpus_of`, :meth:`config_of`,
    :meth:`global_batch`, :meth:`num_gpus`, :meth:`jobs`) read a job → GPU
    index that is built on the first such query, once per object: the
    object never changes, so the index never goes stale.  Its keys are the
    jobs in first-seen order of the GPU mapping, so :meth:`jobs` inserts
    them into its set in the same order a scan of every GPU would, and
    iterates in the same order.
    """

    def __init__(self, assignments: Mapping[int, WorkerAssignment] | None = None) -> None:
        self._assignments: Dict[int, WorkerAssignment] = {}
        if assignments:
            for gpu_id, worker in assignments.items():
                gpu_id = int(gpu_id)
                if gpu_id < 0:
                    raise ValueError(f"gpu_id must be >= 0, got {gpu_id}")
                if not isinstance(worker, WorkerAssignment):
                    raise TypeError("assignments values must be WorkerAssignment")
                self._assignments[gpu_id] = worker
        self._by_job: Optional[Dict[str, List[int]]] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def empty(cls) -> "Allocation":
        """An allocation with every GPU idle."""
        return cls({})

    @classmethod
    def from_job_map(
        cls, job_map: Mapping[str, Sequence[Tuple[int, int]]]
    ) -> "Allocation":
        """Build from ``{job_id: [(gpu_id, local_batch), ...]}``."""
        assignments: Dict[int, WorkerAssignment] = {}
        for job_id, workers in job_map.items():
            for gpu_id, local_batch in workers:
                gpu_id = int(gpu_id)
                if gpu_id in assignments:
                    raise ValueError(
                        f"GPU {gpu_id} assigned to both "
                        f"{assignments[gpu_id].job_id!r} and {job_id!r}"
                    )
                assignments[gpu_id] = WorkerAssignment(job_id, int(local_batch))
        return cls(assignments)

    # -- read access ------------------------------------------------------------

    def _job_index(self) -> Dict[str, List[int]]:
        """``{job_id: ascending GPU ids}``, built on first use."""
        index = self._by_job
        if index is None:
            index = {}
            for gpu_id, worker in self._assignments.items():
                index.setdefault(worker.job_id, []).append(gpu_id)
            for gpus in index.values():
                gpus.sort()
            self._by_job = index
        return index

    def gpus_of(self, job_id: str) -> List[int]:
        """GPU ids allocated to ``job_id`` (sorted)."""
        return list(self._job_index().get(job_id, ()))

    def config_of(self, job_id: str) -> Optional[JobConfig]:
        """The :class:`JobConfig` of ``job_id`` or ``None`` if not placed."""
        gpus = self._job_index().get(job_id)
        if not gpus:
            return None
        return JobConfig(
            job_id=job_id,
            gpu_ids=tuple(gpus),
            local_batches=tuple(self._assignments[g].local_batch for g in gpus),
        )

    def jobs(self) -> Set[str]:
        """Ids of all jobs with at least one worker."""
        # Not ``set(index)``: that sizes the table up front, which can
        # change the set's iteration order.
        return {job_id for job_id in self._job_index()}

    def used_gpus(self) -> List[int]:
        """Ids of GPUs running a worker (sorted)."""
        return sorted(self._assignments)

    def free_gpus(self, all_gpu_ids: Iterable[int]) -> List[int]:
        """Ids from ``all_gpu_ids`` that are idle under this allocation."""
        assigned = self._assignments
        return sorted(gpu for gpu in map(int, all_gpu_ids) if gpu not in assigned)

    def as_dict(self) -> Dict[int, Tuple[str, int]]:
        """Plain-dict view ``{gpu_id: (job_id, local_batch)}``."""
        return {
            gpu: (worker.job_id, worker.local_batch)
            for gpu, worker in self._assignments.items()
        }

    def workers(self) -> Dict[int, WorkerAssignment]:
        """``{gpu_id: worker}`` in insertion order.

        A copy of the mapping; the workers themselves are immutable, so
        a new allocation can be built from them without re-creating any.
        """
        return dict(self._assignments)

    # -- comparisons --------------------------------------------------------------

    def changed_jobs(self, other: "Allocation") -> Set[str]:
        """Jobs whose configuration differs between ``self`` and ``other``.

        A job counts as changed if its set of GPUs or any local batch size
        differs.  Jobs present in only one allocation are included.
        """
        mine, theirs = self._job_index(), other._job_index()
        changed: Set[str] = set()
        for job_id, gpus in mine.items():
            if theirs.get(job_id) != gpus:
                changed.add(job_id)
                continue
            for gpu in gpus:
                if self._assignments[gpu].local_batch != other._assignments[gpu].local_batch:
                    changed.add(job_id)
                    break
        changed.update(job_id for job_id in theirs if job_id not in mine)
        return changed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Allocation):
            return NotImplemented
        return self._assignments == other._assignments

    # -- validation ---------------------------------------------------------------

    def validate(self, num_gpus: int, max_local_batch: Mapping[str, int] | None = None) -> None:
        """Check structural invariants against a cluster of ``num_gpus`` GPUs.

        Raises :class:`ValueError` when a GPU id is out of range or a local
        batch exceeds the per-job device limit in ``max_local_batch``.
        """
        for gpu_id, worker in self._assignments.items():
            if not 0 <= gpu_id < num_gpus:
                raise ValueError(
                    f"GPU id {gpu_id} outside the cluster range [0, {num_gpus})"
                )
            if max_local_batch is not None and worker.job_id in max_local_batch:
                limit = max_local_batch[worker.job_id]
                if worker.local_batch > limit:
                    raise ValueError(
                        f"job {worker.job_id!r} local batch {worker.local_batch} "
                        f"exceeds its device limit {limit}"
                    )

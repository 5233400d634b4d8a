"""The schedule genome (Fig. 1, Eq. 1–2).

A candidate schedule assigns every GPU in the cluster to at most one job
— exactly the genome encoding of Fig. 1.  Batch sizes are not stored per
GPU; instead each placed job's global batch size is *derived* from its
GPU count and its dynamic batch-size limit ``R_j``:

``B_j = clip( min(c_j · max_local_batch_j, R_j, ‖D_j‖), c_j, · )``

i.e. the job uses the largest batch its limit (and device memory) allows
for the GPUs it holds, never less than one sample per worker.  This
keeps the genome equal to "a job id per GPU" — which is what the
evolution operators manipulate — while still making the batch size the
quantity the scheduler orchestrates (through ``R_j``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.jobs.job import Job
from repro.jobs.throughput import derive_global_batch, split_batch

#: Genome value meaning "this GPU is idle".
IDLE = -1


@dataclass(frozen=True)
class Schedule:
    """An immutable candidate schedule over a fixed job roster.

    Parameters
    ----------
    roster:
        Tuple of job ids; genome values index into this tuple.
    genome:
        Integer array of length ``num_gpus``; ``genome[i]`` is the roster
        index of the job occupying GPU ``i`` or :data:`IDLE`.
    """

    roster: Tuple[str, ...]
    genome: np.ndarray

    def __post_init__(self) -> None:
        genome = np.asarray(self.genome, dtype=np.int64)
        if genome.ndim != 1:
            raise ValueError("genome must be one-dimensional")
        if len(set(self.roster)) != len(self.roster):
            raise ValueError("roster contains duplicate job ids")
        if genome.size and (genome.max(initial=IDLE) >= len(self.roster)):
            raise ValueError("genome references a job index outside the roster")
        if genome.size and (genome.min(initial=IDLE) < IDLE):
            raise ValueError(f"genome values must be >= {IDLE}")
        genome.setflags(write=False)
        object.__setattr__(self, "genome", genome)
        object.__setattr__(self, "roster", tuple(self.roster))

    # -- constructors ---------------------------------------------------------------------

    @classmethod
    def from_validated_genome(
        cls, roster: Tuple[str, ...], genome: np.ndarray
    ) -> "Schedule":
        """Fast-path constructor for genomes the engine produced itself.

        Skips the :meth:`__post_init__` validation (shape, roster
        uniqueness, value bounds) — the generation kernel only ever
        emits genomes derived from already-validated ones, and
        re-validating every intermediate candidate showed up in
        profiles.  The genome is still defensively copied and frozen, so
        a materialised schedule can never alias the engine's mutable
        population matrix.

        Anything user-facing must keep going through the public
        constructor; corrupt genomes fed to :class:`Schedule` directly
        are still rejected (and a regression test pins that behaviour).
        """
        genome = np.array(genome, dtype=np.int64)
        genome.setflags(write=False)
        schedule = cls.__new__(cls)
        object.__setattr__(schedule, "roster", tuple(roster))
        object.__setattr__(schedule, "genome", genome)
        return schedule

    @classmethod
    def empty(cls, roster: Sequence[str], num_gpus: int) -> "Schedule":
        """A schedule with every GPU idle."""
        return cls(roster=tuple(roster), genome=np.full(num_gpus, IDLE, dtype=np.int64))

    @classmethod
    def from_assignment(
        cls, roster: Sequence[str], num_gpus: int, assignment: Mapping[int, str]
    ) -> "Schedule":
        """Build from ``{gpu_id: job_id}``."""
        roster = tuple(roster)
        index = {job_id: i for i, job_id in enumerate(roster)}
        genome = np.full(num_gpus, IDLE, dtype=np.int64)
        for gpu, job_id in assignment.items():
            if job_id not in index:
                raise KeyError(f"job {job_id!r} is not in the roster")
            genome[int(gpu)] = index[job_id]
        return cls(roster=roster, genome=genome)

    @classmethod
    def from_allocation(
        cls, roster: Sequence[str], num_gpus: int, allocation: Allocation
    ) -> "Schedule":
        """Project a deployed :class:`Allocation` onto a (possibly new) roster.

        Workers of jobs that are no longer in the roster (completed jobs)
        are dropped.
        """
        roster = tuple(roster)
        index = {job_id: i for i, job_id in enumerate(roster)}
        genome = np.full(num_gpus, IDLE, dtype=np.int64)
        for gpu, (job_id, _batch) in allocation.as_dict().items():
            if job_id in index and 0 <= gpu < num_gpus:
                genome[gpu] = index[job_id]
        return cls(roster=roster, genome=genome)

    # -- basic queries ---------------------------------------------------------------------

    @property
    def num_gpus(self) -> int:
        """Number of GPUs covered by the genome."""
        return int(self.genome.size)

    def job_id_at(self, gpu: int) -> Optional[str]:
        """Job occupying GPU ``gpu`` (None when idle)."""
        value = int(self.genome[gpu])
        return None if value == IDLE else self.roster[value]

    def gpu_count(self, job_id: str) -> int:
        """Number of GPUs assigned to ``job_id`` (``c_j``)."""
        try:
            idx = self.roster.index(job_id)
        except ValueError:
            return 0
        return int(np.count_nonzero(self.genome == idx))

    def gpu_counts(self) -> Dict[str, int]:
        """GPU counts of every placed job."""
        counts = np.bincount(
            self.genome[self.genome != IDLE], minlength=len(self.roster)
        )
        return {
            self.roster[i]: int(counts[i]) for i in range(len(self.roster)) if counts[i]
        }

    def gpus_of(self, job_id: str) -> List[int]:
        """GPU ids assigned to ``job_id`` (ascending)."""
        try:
            idx = self.roster.index(job_id)
        except ValueError:
            return []
        return [int(g) for g in np.nonzero(self.genome == idx)[0]]

    def placed_jobs(self) -> List[str]:
        """Ids of jobs holding at least one GPU, in roster order."""
        present = np.unique(self.genome[self.genome != IDLE])
        return [self.roster[int(i)] for i in present]

    def idle_gpus(self) -> List[int]:
        """Ids of idle GPUs."""
        return [int(g) for g in np.nonzero(self.genome == IDLE)[0]]

    def waiting_jobs(self) -> List[str]:
        """Roster jobs with no GPU in this candidate."""
        placed = set(self.placed_jobs())
        return [job_id for job_id in self.roster if job_id not in placed]

    # -- batch-size derivation ------------------------------------------------------------------

    def global_batch(self, job: Job, limit: int) -> int:
        """Derived global batch size ``B_j`` for ``job`` under limit ``R_j``."""
        count = self.gpu_count(job.job_id)
        return derive_global_batch(
            count, job.spec.max_local_batch, limit, job.dataset_size
        )

    def local_batches(self, job: Job, limit: int) -> List[int]:
        """Even per-GPU split of the derived global batch."""
        count = self.gpu_count(job.job_id)
        if count == 0:
            return []
        return split_batch(self.global_batch(job, limit), count)

    # -- conversions --------------------------------------------------------------------------------

    def to_allocation(self, jobs: Mapping[str, Job], limits: Mapping[str, int]) -> Allocation:
        """Materialise the genome into a deployable :class:`Allocation`."""
        assignments: Dict[int, WorkerAssignment] = {}
        for job_id in self.placed_jobs():
            job = jobs[job_id]
            limit = int(limits.get(job_id, job.spec.base_batch))
            gpus = self.gpus_of(job_id)
            batches = self.local_batches(job, limit)
            for gpu, batch in zip(gpus, batches):
                assignments[gpu] = WorkerAssignment(job_id=job_id, local_batch=max(1, batch))
        return Allocation(assignments)

    # -- genome manipulation helpers ----------------------------------------------------------------

    def with_genome(self, genome: np.ndarray) -> "Schedule":
        """A copy of this schedule with a different genome (same roster)."""
        return Schedule(roster=self.roster, genome=np.array(genome, dtype=np.int64))

    def reindexed(self, new_roster: Sequence[str]) -> "Schedule":
        """Re-express the genome over ``new_roster``; missing jobs become idle."""
        new_roster = tuple(new_roster)
        mapping = {job_id: i for i, job_id in enumerate(new_roster)}
        genome = np.full(self.num_gpus, IDLE, dtype=np.int64)
        for gpu in range(self.num_gpus):
            job_id = self.job_id_at(gpu)
            if job_id is not None and job_id in mapping:
                genome[gpu] = mapping[job_id]
        return Schedule(roster=new_roster, genome=genome)

    def key(self) -> Tuple[int, ...]:
        """Hashable genome key used for de-duplication inside a population."""
        return tuple(int(v) for v in self.genome)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.roster == other.roster and np.array_equal(self.genome, other.genome)

    def __hash__(self) -> int:
        return hash((self.roster, self.key()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule(jobs={self.gpu_counts()}, idle={len(self.idle_gpus())})"

"""Data-parallel training throughput model.

The training speed of a distributed DL job is the quantity every
scheduler in the paper reasons about.  A synchronous data-parallel step
costs

``step time = max_i(compute time of worker i) + all-reduce time``

* Per-worker compute time grows with the local batch but the GPU is only
  efficient once the local batch is large enough
  (:meth:`repro.cluster.devices.GPUSpec.effective_flops`).
* The all-reduce follows the standard ring cost model:
  ``2 (c-1)/c · gradient_bytes / bottleneck_bandwidth`` plus per-hop
  latency, where the bottleneck bandwidth depends on whether the ring
  stays inside one server (NVLink) or crosses the network (InfiniBand).

Together these produce the behaviour of Fig. 2: with a *fixed* global
batch, adding workers shrinks the local batch (losing GPU efficiency)
while the communication term grows, so throughput peaks at a small
worker count and then degrades; with an *elastic* global batch the local
batch stays large and throughput keeps improving.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Hashable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.cluster.devices import GPUSpec
from repro.cluster.topology import ClusterTopology
from repro.jobs.model_zoo import ModelSpec
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class StepTimeBreakdown:
    """Decomposition of one synchronous training step (seconds)."""

    compute_time: float
    communication_time: float

    @property
    def total(self) -> float:
        """End-to-end step time."""
        return self.compute_time + self.communication_time


class ThroughputModel:
    """Analytic throughput model for synchronous data-parallel training.

    Parameters
    ----------
    topology:
        The cluster the job runs on; provides per-GPU specs and the
        bandwidth of the all-reduce ring for a given placement.
    allreduce_efficiency:
        Fraction of the theoretical ring bandwidth NCCL achieves in
        practice (protocol overheads, imperfect overlap).
    """

    def __init__(
        self, topology: ClusterTopology, allreduce_efficiency: float = 0.7
    ) -> None:
        check_positive(allreduce_efficiency, "allreduce_efficiency")
        if allreduce_efficiency > 1.0:
            raise ValueError("allreduce_efficiency must be <= 1")
        self._topology = topology
        self._allreduce_efficiency = float(allreduce_efficiency)

    @property
    def topology(self) -> ClusterTopology:
        """The cluster this model evaluates placements against."""
        return self._topology

    @property
    def allreduce_efficiency(self) -> float:
        """The achieved fraction of theoretical ring bandwidth."""
        return self._allreduce_efficiency

    # -- elementary costs ----------------------------------------------------------

    def compute_time(
        self, model: ModelSpec, local_batch: int, gpu: Optional[GPUSpec] = None
    ) -> float:
        """Forward+backward time of one worker for ``local_batch`` samples."""
        if local_batch <= 0:
            return 0.0
        gpu = gpu or self._topology.gpu_spec
        flops = model.flops_per_sample * local_batch
        return flops / gpu.effective_flops(local_batch) + gpu.kernel_overhead

    def allreduce_time(self, model: ModelSpec, gpu_ids: Sequence[int]) -> float:
        """Ring all-reduce time of one gradient over ``gpu_ids``."""
        gpu_ids = list(gpu_ids)
        num_workers = len(gpu_ids)
        if num_workers <= 1:
            return 0.0
        bandwidth = self._topology.ring_bandwidth(gpu_ids) * self._allreduce_efficiency
        latency = self._topology.ring_latency(gpu_ids)
        volume_term = 2.0 * (num_workers - 1) / num_workers * model.gradient_bytes
        return volume_term / bandwidth + 2.0 * (num_workers - 1) * latency

    # -- step time / throughput -----------------------------------------------------

    def step_time(
        self,
        model: ModelSpec,
        local_batches: Sequence[int],
        gpu_ids: Sequence[int],
    ) -> StepTimeBreakdown:
        """Time of one synchronous step for the given worker configuration.

        ``local_batches[i]`` is the batch handled by the worker on
        ``gpu_ids[i]``; the slowest worker gates the step (stragglers).
        Every GPU of a :class:`ClusterTopology` has the node's spec, so the
        compute time is evaluated once per distinct local batch (an even
        split has at most two); an id outside the cluster raises
        ``IndexError``.
        """
        if len(local_batches) != len(gpu_ids):
            raise ValueError(
                f"local_batches ({len(local_batches)}) and gpu_ids ({len(gpu_ids)}) "
                "must have the same length"
            )
        if len(gpu_ids) == 0 or sum(local_batches) <= 0:
            return StepTimeBreakdown(0.0, 0.0)
        topology = self._topology
        for gpu in (min(gpu_ids), max(gpu_ids)):
            topology.gpu(int(gpu))  # rejects ids outside the cluster
        spec = topology.gpu_spec
        compute = max(self.compute_time(model, b, spec) for b in set(local_batches))
        comm = self.allreduce_time(model, gpu_ids)
        return StepTimeBreakdown(compute_time=compute, communication_time=comm)

    def throughput(
        self,
        model: ModelSpec,
        local_batches: Sequence[int],
        gpu_ids: Sequence[int],
    ) -> float:
        """Global training throughput in samples/second for a configuration."""
        breakdown = self.step_time(model, local_batches, gpu_ids)
        global_batch = float(sum(local_batches))
        if global_batch <= 0 or breakdown.total <= 0:
            return 0.0
        return global_batch / breakdown.total

    def throughput_even(
        self, model: ModelSpec, global_batch: int, gpu_ids: Sequence[int]
    ) -> float:
        """Throughput when ``global_batch`` is split as evenly as possible."""
        gpu_ids = list(gpu_ids)
        if not gpu_ids or global_batch <= 0:
            return 0.0
        local = split_batch(global_batch, len(gpu_ids))
        return self.throughput(model, local, gpu_ids)

    # -- derived helpers ---------------------------------------------------------------

    def scaling_curve(
        self,
        model: ModelSpec,
        worker_counts: Sequence[int],
        global_batch: Optional[int] = None,
        local_batch: Optional[int] = None,
    ) -> np.ndarray:
        """Throughput across worker counts (Fig. 2 generator).

        Exactly one of ``global_batch`` (fixed-global-batch curve) or
        ``local_batch`` (elastic curve: global batch grows with workers)
        must be provided.  Workers are packed onto GPUs 0..c-1, matching
        the locality-aware placement of a well-packed job.
        """
        if (global_batch is None) == (local_batch is None):
            raise ValueError("provide exactly one of global_batch / local_batch")
        rates = []
        for count in worker_counts:
            count = int(count)
            if count < 1:
                raise ValueError("worker counts must be >= 1")
            gpu_ids = list(range(count))
            if global_batch is not None:
                rates.append(self.throughput_even(model, int(global_batch), gpu_ids))
            else:
                rates.append(
                    self.throughput(model, [int(local_batch)] * count, gpu_ids)
                )
        return np.asarray(rates, dtype=float)


def split_batch(global_batch: int, num_workers: int) -> list[int]:
    """Split ``global_batch`` across ``num_workers`` as evenly as possible.

    The first ``global_batch % num_workers`` workers receive one extra
    sample.  Every worker receives at least 0; callers that require ≥1
    sample per worker should not ask for more workers than samples.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    if global_batch < 0:
        raise ValueError(f"global_batch must be >= 0, got {global_batch}")
    base, extra = divmod(int(global_batch), num_workers)
    return [base + (1 if i < extra else 0) for i in range(num_workers)]


def derive_global_batch(
    count: int, max_local_batch: int, limit: int, dataset_size: int
) -> int:
    """Derived global batch ``B_j`` of a job holding ``count`` GPUs (Eq. 1–2).

    The job uses the largest batch its limit ``R_j`` (and device memory)
    allows for the GPUs it holds, never less than one sample per worker.
    This is the single definition shared by :class:`~repro.core.schedule.Schedule`
    and :class:`ThroughputTable`.
    """
    if count <= 0:
        return 0
    natural = count * int(max_local_batch)
    batch = min(natural, int(limit), int(dataset_size))
    return max(batch, count)


class BoundedMemo:
    """A small LRU-evicting memo of throughput model evaluations.

    Keeps the ``max_entries`` most recently used entries; :meth:`get`
    counts hits and misses and refreshes the recency of a hit.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        check_positive_int(max_entries, "max_entries")
        self.max_entries = int(max_entries)
        self._data: "OrderedDict[Hashable, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __setitem__(self, key: Hashable, value: float) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.max_entries:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, default=None):
        if key not in self._data:
            self.misses += 1
            return default
        self.hits += 1
        self._data.move_to_end(key)
        return self._data[key]


class ThroughputTable:
    """Per-invocation lookup table of job throughput by GPU count.

    Scoring (Eq. 8) evaluates the same jobs at the same handful of GPU
    counts for every candidate of every evolution iteration, so instead
    of one analytic-model call per (job, candidate) pair the table keeps
    one row per job with ``X_j(c)`` for ``c = 0..num_gpus``:

    * The global batch at count ``c`` is fully determined by the job's
      batch-size limit ``R_j`` (see :func:`derive_global_batch`), so a
      row is valid for the whole scheduler invocation.
    * On a homogeneous star-interconnect cluster the placement affects
      throughput only through whether the ring stays inside one server,
      so each row keeps two planes — intra-node and cross-node — each
      evaluated at a canonical representative placement.  Entries are
      therefore exactly the analytic model's value for *any* placement
      of that (count, locality) class; topologies with non-uniform
      inter-node links (subclassed :class:`ClusterTopology`) would make
      this an approximation.

    Entries are filled lazily — only the (job, count, locality) triples
    scoring actually visits are evaluated — and the table is
    hard-bounded at ``num_jobs × (num_gpus + 1) × 2`` entries, which is
    what lets it replace the scheduler's previous unbounded memoisation
    dict.  An optional shared ``memo`` (see :class:`BoundedMemo`)
    carries model evaluations across invocations, keyed by
    ``(model, global batch, count, crosses nodes)``.

    Every table carries a monotonically-increasing :attr:`version`
    stamped at construction.
    Downstream caches keyed on a table's values — the scheduler-level
    table reuse in :class:`~repro.core.ones_scheduler.ONESScheduler`,
    the delta-scoring engine's attribution counters — compare versions
    instead of array contents: a different version means "treat every
    cached row as dirty".
    """

    _version_counter = 0

    @classmethod
    def _next_version(cls) -> int:
        ThroughputTable._version_counter += 1
        return ThroughputTable._version_counter

    def __init__(
        self,
        model: ThroughputModel,
        jobs: Mapping[str, "object"],
        limits: Mapping[str, int],
        num_gpus: int,
        roster: Optional[Sequence[str]] = None,
        memo: Optional[BoundedMemo] = None,
    ) -> None:
        check_positive_int(num_gpus, "num_gpus")
        self._model = model
        self._roster: Tuple[str, ...] = (
            tuple(roster) if roster is not None else tuple(sorted(jobs))
        )
        missing = [job_id for job_id in self._roster if job_id not in jobs]
        if missing:
            raise KeyError(f"roster references unknown jobs: {missing}")
        self._jobs = {job_id: jobs[job_id] for job_id in self._roster}
        self._limits = {
            job_id: int(limits.get(job_id, self._jobs[job_id].spec.base_batch))
            for job_id in self._roster
        }
        self._num_gpus = int(num_gpus)
        self._index = {job_id: i for i, job_id in enumerate(self._roster)}
        self._memo = memo
        topology = model.topology
        self._gpus_per_node = int(topology.gpus_per_node)
        self._node_of = np.asarray(
            topology.node_of(np.arange(self._num_gpus)), dtype=np.int64
        )
        self._multi_node_cluster = bool(self._node_of.size) and (
            int(self._node_of[-1]) > 0
        )
        # NaN marks a (job, count, locality) triple that has not been
        # evaluated yet; zero GPUs always means zero throughput.
        self._table = np.full((len(self._roster), self._num_gpus + 1, 2), np.nan)
        if self._table.size:
            self._table[:, 0, :] = 0.0
        self.model_calls = 0
        self._version = self._next_version()

    # -- introspection ------------------------------------------------------------

    @property
    def roster(self) -> Tuple[str, ...]:
        """Job ids the table rows correspond to."""
        return self._roster

    @property
    def node_of(self) -> np.ndarray:
        """Vectorised GPU-id → node-id map of the underlying topology."""
        return self._node_of

    @property
    def version(self) -> int:
        """Monotone cache-invalidation stamp (see the class docstring)."""
        return self._version

    # -- evaluation ---------------------------------------------------------------

    def _canonical_placement(self, count: int, crosses: bool) -> Sequence[int]:
        """A representative placement of ``count`` GPUs for a locality class."""
        if crosses and self._multi_node_cluster and count > 1:
            if count > self._gpus_per_node:
                return range(count)  # packed already spans servers
            # count-1 workers on the first server, one on the second.
            return list(range(count - 1)) + [self._gpus_per_node]
        return range(count)

    def _compute(self, job_idx: int, count: int, crosses: bool) -> float:
        job = self._jobs[self._roster[job_idx]]
        global_batch = derive_global_batch(
            count, job.spec.max_local_batch, self._limits[self._roster[job_idx]],
            job.dataset_size,
        )
        key = (job.spec.model.name, global_batch, count, bool(crosses))
        if self._memo is not None:
            cached = self._memo.get(key)
            if cached is not None:
                return float(cached)
        value = self._model.throughput_even(
            job.spec.model, global_batch, self._canonical_placement(count, crosses)
        )
        self.model_calls += 1
        if self._memo is not None:
            self._memo[key] = value
        return float(value)

    def lookup(
        self, counts: np.ndarray, crosses_nodes: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorised ``X_j(c)`` gather for a population's count matrix.

        ``counts`` has shape ``(K, num_jobs)`` with ``counts[k, j]`` the
        GPU count candidate ``k`` gives roster job ``j``;
        ``crosses_nodes`` is an equally-shaped boolean matrix saying
        whether that placement spans servers (``None`` assumes packed
        placements).  Missing table entries are filled on demand
        (distinct triples only) before the gather, so repeated lookups
        across evolution iterations are pure array indexing.  A count
        outside ``[0, num_gpus]`` raises :class:`IndexError`.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != len(self._roster):
            raise ValueError(
                f"counts must have shape (K, {len(self._roster)}), got {counts.shape}"
            )
        if counts.size == 0:
            return np.zeros(counts.shape, dtype=float)
        if crosses_nodes is None:
            planes = counts > self._gpus_per_node
        else:
            planes = np.asarray(crosses_nodes, dtype=bool)
            if planes.shape != counts.shape:
                raise ValueError(
                    f"crosses_nodes shape {planes.shape} != counts shape {counts.shape}"
                )
        # The flat index would silently read a neighbouring job's row.
        if counts.min() < 0 or counts.max() > self._num_gpus:
            raise IndexError(
                f"GPU counts must lie in [0, {self._num_gpus}], got "
                f"[{counts.min()}, {counts.max()}]"
            )
        # One integer per (job, count, plane) triple, ordered like the
        # triples themselves: the flat index of the triple in the table.
        stride = 2 * (self._num_gpus + 1)
        keys = np.arange(0, counts.shape[1] * stride, stride) + 2 * counts + planes
        flat = self._table.reshape(-1)
        values = flat[keys]
        nan_mask = np.isnan(values)
        if nan_mask.any():
            # Missing entries fill in (j, c, p) order.
            for key in np.unique(keys[nan_mask]).tolist():
                j, rest = divmod(key, stride)
                c, p = divmod(rest, 2)
                flat[key] = self._compute(j, c, bool(p))
            values = flat[keys]
        return values

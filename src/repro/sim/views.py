"""Per-partition kernel state views for hierarchical scheduling.

The hierarchical scheduler (:mod:`repro.core.partitioned`) runs one
independent ONES search per fixed-size cluster shard.  Each search must
see a perfectly ordinary :class:`~repro.baselines.base.ClusterState` —
dense GPU ids starting at 0, only its own jobs, only its own nodes — so
the genome layer, the throughput table and the evolution operators work
unchanged at any partition offset.

This module builds those views on top of the node-compaction machinery
from :mod:`repro.faults.masking`: a partition view is "compact these
nodes of the real cluster", where the node subset is the partition's
static slice minus whatever is currently down (faults) or on loan to the
wide-job path.  Because partitions are node-aligned on the homogeneous
star fabric, the compaction preserves throughput exactly — the same
argument that makes fault masking bit-exact.

Compaction walks the whole deployed allocation, so the factory keeps
the last view of each partition and reuses its compacted allocation and
id maps while the partition's visible nodes, the deployed
:class:`~repro.cluster.allocation.Allocation` object (immutable, so
compared by identity) and the partition's job ids are all unchanged;
such an event only wraps a new :class:`ClusterState`.  The dense virtual
topology/model pairs are cached per node count, so steady-state events
reuse the same instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import ClusterState
from repro.cluster.allocation import Allocation
from repro.cluster.topology import ClusterTopology
from repro.faults.masking import CompactView, compact_nodes
from repro.jobs.job import Job
from repro.jobs.throughput import ThroughputModel


def partition_nodes(topology: ClusterTopology, partition_size: int) -> List[Tuple[int, ...]]:
    """Split ``topology`` into consecutive node-aligned shards.

    ``partition_size`` is in GPUs and must be a whole number of nodes
    that tiles the cluster exactly; the return value is one node-id tuple
    per partition, in ascending order.
    """
    gpus_per_node = topology.gpus_per_node
    if partition_size <= 0:
        raise ValueError(f"partition_size must be positive, got {partition_size}")
    if partition_size % gpus_per_node != 0:
        raise ValueError(
            f"partition_size ({partition_size}) must be a multiple of the node "
            f"size ({gpus_per_node} GPUs)"
        )
    if topology.num_gpus % partition_size != 0:
        raise ValueError(
            f"cluster size ({topology.num_gpus} GPUs) must be a multiple of "
            f"partition_size ({partition_size})"
        )
    nodes_per_partition = partition_size // gpus_per_node
    return [
        tuple(range(first, first + nodes_per_partition))
        for first in range(0, topology.num_nodes, nodes_per_partition)
    ]


def down_nodes(state: ClusterState) -> FrozenSet[int]:
    """Node ids currently unavailable (faulted), from the GPU mask."""
    if not state.unavailable_gpus:
        return frozenset()
    return frozenset(int(state.topology.node_of(g)) for g in state.unavailable_gpus)


@dataclass
class _CachedView:
    """What one partition's last view was compacted from, and the result."""

    nodes: Tuple[int, ...]
    allocation: Allocation  # strong reference: compared by identity
    job_ids: FrozenSet[str]
    compacted: Allocation
    to_real: np.ndarray
    from_real: Dict[int, int]


class PartitionViewFactory:
    """Builds per-partition :class:`CompactView`\\ s over a live state.

    One factory per hierarchical scheduler instance: it owns the cache of
    dense virtual (topology, throughput model) pairs, keyed by node
    count, so every partition of the same effective size — and the same
    partition across events — shares instances, and the last view of
    each partition (see the module docstring).
    """

    def __init__(self, topology: ClusterTopology, allreduce_efficiency: float) -> None:
        self._node_spec = topology.node_spec
        self._allreduce_efficiency = float(allreduce_efficiency)
        self._dense: Dict[int, Tuple[ClusterTopology, ThroughputModel]] = {}
        self._last: Dict[int, _CachedView] = {}

    def dense_cluster(self, num_nodes: int) -> Tuple[ClusterTopology, ThroughputModel]:
        """The cached dense cluster of ``num_nodes`` homogeneous nodes."""
        cached = self._dense.get(num_nodes)
        if cached is None:
            topology = ClusterTopology(num_nodes, self._node_spec)
            model = ThroughputModel(
                topology, allreduce_efficiency=self._allreduce_efficiency
            )
            cached = (topology, model)
            self._dense[num_nodes] = cached
        return cached

    def view(
        self,
        state: ClusterState,
        partition: int,
        nodes: Sequence[int],
        jobs: Dict[str, Job],
    ) -> Optional[CompactView]:
        """Partition ``partition``'s private state over ``nodes``, or ``None``.

        ``nodes`` is the partition's *visible* node subset (static slice
        minus down / loaned nodes), ``None`` is returned when it is empty;
        ``jobs`` the jobs assigned to the partition.  Workers of those
        jobs sitting outside ``nodes`` are dropped from the view
        (``strict=False`` drain semantics): the partition's next
        deployment releases them.
        """
        nodes = tuple(int(n) for n in nodes)
        if not nodes:
            return None
        topology, model = self.dense_cluster(len(nodes))
        cached = self._last.get(partition)
        if (
            cached is not None
            and cached.allocation is state.allocation
            and cached.nodes == nodes
            and cached.job_ids == jobs.keys()
        ):
            return CompactView(
                state=ClusterState(
                    now=state.now,
                    topology=topology,
                    throughput_model=model,
                    allocation=cached.compacted,
                    jobs=jobs,
                ),
                to_real=cached.to_real,
                from_real=cached.from_real,
            )
        view = compact_nodes(state, nodes, topology, model, jobs=jobs, strict=False)
        self._last[partition] = _CachedView(
            nodes=nodes,
            allocation=state.allocation,
            job_ids=frozenset(jobs),
            compacted=view.state.allocation,
            to_real=view.to_real,
            from_real=view.from_real,
        )
        return view

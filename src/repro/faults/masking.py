"""Node compaction: present a faulted cluster to ONES as a smaller one.

The greedy baselines pick GPUs from ``state.free_gpus()``, so hiding the
GPUs of down nodes from that list is enough to make them fault-aware.
ONES is different: its genome spans *every* GPU id of the cluster
(Fig. 1), and the evolutionary operators would happily place workers on
a dead node.

Rather than teaching idle/blocked semantics to both evolution engines
(and re-proving their bit-exact parity), this module exploits the
node-granular availability contract of :mod:`repro.faults.plan`: because
outages always remove *whole, homogeneous* servers from a uniform star
fabric, the surviving nodes are — up to a relabelling — exactly a
smaller Longhorn cluster.  :func:`compact_state` maps the up-nodes onto
a dense virtual topology (virtual node ``k`` = ``k``-th surviving real
node, GPUs renumbered contiguously), re-expresses the deployed
allocation in virtual ids, and hands ONES a perfectly ordinary
``ClusterState`` to evolve against.  The winning allocation is then
translated back to real GPU ids with :meth:`CompactView.expand`.

Throughput is preserved exactly: nodes are homogeneous, the interconnect
is a uniform star, and the mapping keeps node boundaries — a placement
and its virtual image span the same number of servers with the same
bandwidths, so ``ThroughputModel`` returns bit-identical values on
either side of the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import ClusterState
from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.cluster.topology import ClusterTopology
from repro.jobs.job import Job
from repro.jobs.throughput import ThroughputModel


@dataclass
class CompactView:
    """A virtual (dense) view of a faulted cluster plus its id mappings."""

    state: ClusterState  # the virtual ClusterState handed to the scheduler
    to_real: np.ndarray  # virtual gpu id -> real gpu id
    from_real: Dict[int, int]  # real gpu id -> virtual gpu id

    def expand(self, allocation: Allocation) -> Allocation:
        """Translate a virtual-id allocation back to real GPU ids."""
        return Allocation(
            {
                int(self.to_real[gpu]): worker
                for gpu, worker in allocation.workers().items()
            }
        )

def _up_nodes(state: ClusterState) -> Tuple[int, ...]:
    """Surviving node ids, asserting the node-granular availability contract."""
    topology = state.topology
    unavailable = set(state.unavailable_gpus)
    down_nodes = sorted({int(topology.node_of(g)) for g in unavailable})
    covered = set()
    for node in down_nodes:
        covered.update(int(g) for g in topology.gpus_of_node(node))
    if covered != unavailable:
        raise ValueError(
            "unavailable GPUs are not whole nodes; node compaction requires "
            "node-granular outages (see repro.faults.plan)"
        )
    up = tuple(n for n in range(topology.num_nodes) if n not in set(down_nodes))
    if not up:
        raise ValueError("every node is down; nothing to compact onto")
    return up


def compact_nodes(
    state: ClusterState,
    nodes: Sequence[int],
    topology: ClusterTopology,
    throughput_model: ThroughputModel,
    *,
    jobs: Optional[Dict[str, Job]] = None,
    strict: bool = True,
) -> CompactView:
    """Compact an explicit node subset of ``state`` onto a dense cluster.

    The generalisation underneath both fault masking and hierarchical
    partitioning: ``nodes`` names the real nodes the virtual cluster is
    built from (in that order), ``topology`` / ``throughput_model`` are
    the matching dense instances (``len(nodes)`` nodes), and ``jobs``
    optionally restricts the view to a job subset — the per-partition
    case, where a partition's scheduler must only see its own jobs.

    ``strict=True`` raises if a visible job holds a GPU outside the node
    subset (the fault-masking contract: surviving jobs sit entirely on
    surviving nodes).  ``strict=False`` silently drops such workers from
    the compacted allocation instead — the *drain* semantics partitions
    need when a node is being reclaimed for a wide job: the partition
    evolves a schedule without the leaving node, and deploying it
    releases the stragglers.
    """
    gpus_per_node = state.topology.gpus_per_node
    to_real = np.concatenate(
        [np.asarray(state.topology.gpus_of_node(node), dtype=np.int64) for node in nodes]
    )
    if to_real.shape[0] != topology.num_gpus or topology.gpus_per_node != gpus_per_node:
        raise ValueError("virtual topology does not match the selected nodes")
    from_real = {int(real): virtual for virtual, real in enumerate(to_real)}
    view = CompactView(
        state=None,  # type: ignore[arg-type]  # filled right below
        to_real=to_real,
        from_real=from_real,
    )
    visible_jobs = state.jobs if jobs is None else jobs
    mapping: Dict[int, WorkerAssignment] = {}
    for gpu, worker in state.allocation.workers().items():
        if jobs is not None and worker.job_id not in visible_jobs:
            continue
        virtual = from_real.get(int(gpu))
        if virtual is None:
            if strict:
                raise ValueError(
                    f"allocation places job {worker.job_id!r} on GPU {gpu}, "
                    f"outside the compacted node subset"
                )
            continue
        mapping[virtual] = worker
    view.state = ClusterState(
        now=state.now,
        topology=topology,
        throughput_model=throughput_model,
        allocation=Allocation(mapping),
        jobs=visible_jobs,
    )
    return view


def compact_state(
    state: ClusterState,
    topology: ClusterTopology,
    throughput_model: ThroughputModel,
) -> CompactView:
    """Build the virtual :class:`ClusterState` over ``topology``.

    ``topology`` / ``throughput_model`` are the virtual-cluster instances
    (usually cached per down-node set via :func:`virtual_cluster`); the
    job dictionary is shared by reference, so the scheduler observes the
    same live :class:`~repro.jobs.job.Job` objects either way.
    """
    return compact_nodes(state, _up_nodes(state), topology, throughput_model)


def virtual_cluster(
    state: ClusterState,
) -> Tuple[ClusterTopology, ThroughputModel]:
    """The dense virtual topology/model for the current down-node set.

    Pure construction — callers cache the result keyed by
    ``state.unavailable_gpus`` (the ONES scheduler keeps such a cache so
    repeated events during one outage reuse the same instances).
    """
    up = _up_nodes(state)
    topology = ClusterTopology(len(up), state.topology.node_spec)
    model = ThroughputModel(
        topology,
        allreduce_efficiency=state.throughput_model.allreduce_efficiency,
    )
    return topology, model

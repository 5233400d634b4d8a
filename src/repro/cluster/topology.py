"""Cluster topology: nodes, GPUs and interconnect bandwidths.

A :class:`ClusterTopology` is the static layout the scheduler allocates
against.  GPUs are identified by consecutive integer ids ``0..num_gpus-1``
(the genome in Fig. 1 of the paper indexes GPUs the same way); each GPU
belongs to exactly one node.  The topology also answers bandwidth
queries — the throughput model needs the bottleneck bandwidth of the
all-reduce ring spanned by a set of GPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cluster.devices import LONGHORN_NODE, GPUSpec, NodeSpec
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class GPUHandle:
    """A physical GPU in the cluster: its global id, node and spec."""

    gpu_id: int
    node_id: int
    spec: GPUSpec


class ClusterTopology:
    """A cluster of homogeneous GPU servers.

    Parameters
    ----------
    num_nodes:
        Number of GPU servers.
    node_spec:
        Hardware description shared by every server.

    Notes
    -----
    The interconnect is a star around a single network switch (Longhorn
    uses a non-blocking EDR fabric, so a star with uniform uplink
    bandwidth is an adequate model).  Every cross-node path is therefore
    uplink → switch → uplink, and its bottleneck is the slower of the two
    servers' uplinks, kept in one per-node list.
    """

    def __init__(self, num_nodes: int, node_spec: NodeSpec = LONGHORN_NODE) -> None:
        check_positive_int(num_nodes, "num_nodes")
        self._node_spec = node_spec
        self._num_nodes = int(num_nodes)
        self._gpus: List[GPUHandle] = []
        for node_id in range(num_nodes):
            for local in range(node_spec.gpus_per_node):
                gpu_id = node_id * node_spec.gpus_per_node + local
                self._gpus.append(GPUHandle(gpu_id, node_id, node_spec.gpu))
        self._node_of = np.array([g.node_id for g in self._gpus], dtype=np.int64)
        #: Bandwidth of each server's link to the switch (bytes/s).
        self._uplink = [float(node_spec.inter_node_bandwidth)] * self._num_nodes

    # -- basic accessors ------------------------------------------------------

    @property
    def node_spec(self) -> NodeSpec:
        """Hardware description of each server."""
        return self._node_spec

    @property
    def gpu_spec(self) -> GPUSpec:
        """Hardware description of each GPU."""
        return self._node_spec.gpu

    @property
    def num_nodes(self) -> int:
        """Number of servers in the cluster."""
        return self._num_nodes

    @property
    def num_gpus(self) -> int:
        """Total number of GPUs in the cluster."""
        return len(self._gpus)

    @property
    def gpus_per_node(self) -> int:
        """GPUs installed per server."""
        return self._node_spec.gpus_per_node

    def gpu(self, gpu_id: int) -> GPUHandle:
        """Return the :class:`GPUHandle` with global id ``gpu_id``."""
        if not 0 <= gpu_id < self.num_gpus:
            raise IndexError(f"gpu_id {gpu_id} out of range [0, {self.num_gpus})")
        return self._gpus[gpu_id]

    def all_gpu_ids(self) -> np.ndarray:
        """All GPU ids as a numpy array (ascending)."""
        return np.arange(self.num_gpus, dtype=np.int64)

    def node_of(self, gpu_id) -> np.ndarray:
        """Vectorised map from GPU id(s) to node id(s)."""
        return self._node_of[np.asarray(gpu_id, dtype=np.int64)]

    def gpus_of_node(self, node_id: int) -> np.ndarray:
        """GPU ids hosted by server ``node_id``."""
        if not 0 <= node_id < self._num_nodes:
            raise IndexError(f"node_id {node_id} out of range [0, {self._num_nodes})")
        return np.nonzero(self._node_of == node_id)[0]

    # -- bandwidth queries ------------------------------------------------------

    def link_bandwidth(self, node_a: int, node_b: int) -> float:
        """Bottleneck bandwidth of the path between two servers (bytes/s).

        Within the same server this is the NVLink bandwidth; across servers
        it is the slower of the two uplinks on the switch path.
        """
        if node_a == node_b:
            return self._node_spec.intra_node_bandwidth
        return min(self._uplink[node_a], self._uplink[node_b])

    def ring_bandwidth(self, gpu_ids: Sequence[int]) -> float:
        """Bottleneck bandwidth of an all-reduce ring over ``gpu_ids``.

        If all workers live on one server the ring runs over NVLink; as
        soon as the placement spans servers the slowest hop (the network)
        bounds the ring.  This is what makes the *reorder* operator (and
        job locality in general) matter.
        """
        gpu_ids = list(gpu_ids)
        if not gpu_ids:
            raise ValueError("ring_bandwidth requires at least one GPU")
        nodes = set(int(n) for n in self.node_of(gpu_ids))
        if len(nodes) == 1:
            return self._node_spec.intra_node_bandwidth
        # Every inter-node hop of the ring crosses the switch, so the
        # slowest uplink of the nodes it spans bounds it.
        uplink = self._uplink
        return min(uplink[n] for n in nodes)

    def ring_latency(self, gpu_ids: Sequence[int]) -> float:
        """Per-hop latency of an all-reduce ring over ``gpu_ids`` (seconds)."""
        gpu_ids = list(gpu_ids)
        if not gpu_ids:
            raise ValueError("ring_latency requires at least one GPU")
        nodes = set(int(n) for n in self.node_of(gpu_ids))
        if len(nodes) == 1:
            return 1e-6  # NVLink hop
        return self._node_spec.network_latency

    # -- placement summaries ------------------------------------------------------

    def nodes_spanned(self, gpu_ids: Iterable[int]) -> int:
        """Number of distinct servers a set of GPUs touches."""
        gpu_ids = list(gpu_ids)
        if not gpu_ids:
            return 0
        return int(np.unique(self.node_of(gpu_ids)).size)

    def describe(self) -> Dict[str, object]:
        """A plain-dict summary used in reports and logs."""
        return {
            "nodes": self._num_nodes,
            "gpus": self.num_gpus,
            "gpus_per_node": self.gpus_per_node,
            "gpu": self.gpu_spec.name,
            "intra_node_bandwidth": self._node_spec.intra_node_bandwidth,
            "inter_node_bandwidth": self._node_spec.inter_node_bandwidth,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterTopology(nodes={self._num_nodes}, "
            f"gpus={self.num_gpus}, gpu={self.gpu_spec.name})"
        )


def make_longhorn_cluster(num_gpus: int = 64) -> ClusterTopology:
    """Build a Longhorn-like cluster with ``num_gpus`` V100 GPUs.

    ``num_gpus`` must be a multiple of 4 (4 GPUs per Longhorn server).
    The paper's scalability study (Fig. 17/18) uses 16, 32, 48 and 64.
    """
    check_positive_int(num_gpus, "num_gpus")
    per_node = LONGHORN_NODE.gpus_per_node
    if num_gpus % per_node != 0:
        raise ValueError(
            f"num_gpus must be a multiple of {per_node} (GPUs per node), got {num_gpus}"
        )
    return ClusterTopology(num_gpus // per_node, LONGHORN_NODE)

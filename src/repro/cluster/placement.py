"""Placement quality: how well a worker placement keeps its ring local.

The evolution operators of ONES can scatter a job's workers across
servers; the *reorder* operator (Fig. 10) re-packs workers of the same
job onto contiguous GPUs so that all-reduce rings stay inside a server
whenever possible.  Gandiva's migration rule reads the locality score
defined here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.topology import ClusterTopology


def placement_quality(topology: ClusterTopology, gpu_ids: Sequence[int]) -> float:
    """Locality score in ``(0, 1]`` for a worker placement.

    1.0 means the fewest possible servers are used for that worker count;
    lower values indicate avoidable spreading.  An empty placement scores
    1.0 (nothing to misplace).
    """
    gpu_ids = list(gpu_ids)
    if not gpu_ids:
        return 1.0
    per_node = topology.gpus_per_node
    minimal = int(np.ceil(len(gpu_ids) / per_node))
    actual = topology.nodes_spanned(gpu_ids)
    return minimal / actual

"""GPU-cluster substrate.

The paper evaluates ONES on TACC Longhorn: 16 GPU servers, each with
4 NVIDIA V100 GPUs, NVLink within a node and EDR InfiniBand between
nodes.  This subpackage provides the simulated equivalent:

* :mod:`repro.cluster.devices` — GPU and node hardware descriptions.
* :mod:`repro.cluster.topology` — the cluster as a collection of nodes
  and GPUs with intra-/inter-node bandwidths (a star around one switch).
* :mod:`repro.cluster.allocation` — a concrete assignment of GPU workers
  (with local batch sizes) to jobs.
* :mod:`repro.cluster.placement` — the placement-locality score
  Gandiva's migration rule reads.
* :mod:`repro.cluster.events` — the discrete-event queue.
"""

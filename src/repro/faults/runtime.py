"""Mutable fault state owned by one simulator run.

The :class:`FaultRuntime` is the simulator-side counterpart of the
immutable :class:`~repro.faults.plan.FaultPlan`: it tracks which nodes
are currently down or degraded, the restart delays owed by evicted jobs,
and the recovery metrics that end up in
``SimulationResult.faults``.  It is deliberately cheap when no fault has
fired — every hot-path query short-circuits on empty state, so the
zero-fault event loop does the same work it did before the subsystem
existed (gated by the ``faults`` section of ``BENCH_scoring.json``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.cluster.topology import ClusterTopology

_EMPTY: FrozenSet[int] = frozenset()


class FaultRuntime:
    """Down/degraded node state plus recovery accounting for one run."""

    def __init__(self, topology: ClusterTopology) -> None:
        self._topology = topology
        self.down_nodes: Set[int] = set()
        self.degraded: Dict[int, float] = {}  # node -> throughput multiplier
        self.pending_restart: Dict[str, float] = {}  # job -> restore seconds owed
        self._unavailable: FrozenSet[int] = _EMPTY
        # recovery metrics (all floats so the dict serialises uniformly)
        self.node_down_events = 0
        self.node_up_events = 0
        self.degrade_events = 0
        self.evictions = 0
        self.restarts = 0
        self.lost_samples = 0.0
        self.lost_work_seconds = 0.0
        self.lost_gpu_seconds = 0.0
        self.restart_delay_seconds = 0.0
        self.downtime_gpu_seconds = 0.0

    # -- availability -------------------------------------------------------------------

    def unavailable_gpus(self) -> FrozenSet[int]:
        """GPU ids on down nodes (cached; empty frozenset when healthy)."""
        return self._unavailable

    def mark_down(self, node_id: int) -> bool:
        """Record a node outage; returns False if the node was already down."""
        if node_id in self.down_nodes:
            return False
        self.down_nodes.add(node_id)
        self.node_down_events += 1
        self._refresh_unavailable()
        return True

    def mark_up(self, node_id: int) -> bool:
        """Record a node recovery; returns False if the node was not down."""
        if node_id not in self.down_nodes:
            return False
        self.down_nodes.discard(node_id)
        self.node_up_events += 1
        self._refresh_unavailable()
        return True

    def set_degrade(self, node_id: int, factor: float) -> None:
        """Set (or clear, at ``factor >= 1``) a node's throughput multiplier."""
        self.degrade_events += 1
        if factor >= 1.0:
            self.degraded.pop(node_id, None)
        else:
            self.degraded[node_id] = float(factor)

    def _refresh_unavailable(self) -> None:
        if not self.down_nodes:
            self._unavailable = _EMPTY
            return
        gpus: Set[int] = set()
        for node in self.down_nodes:
            gpus.update(int(g) for g in self._topology.gpus_of_node(node))
        self._unavailable = frozenset(gpus)

    # -- throughput degradation ---------------------------------------------------------

    def placement_factor(self, gpu_ids: Iterable[int]) -> float:
        """Throughput multiplier of a placement (slowest node bounds the ring)."""
        if not self.degraded:
            return 1.0
        factor = 1.0
        for node in {int(n) for n in self._topology.node_of(list(gpu_ids))}:
            factor = min(factor, self.degraded.get(node, 1.0))
        return factor

    # -- restart bookkeeping ------------------------------------------------------------

    def owe_restart(self, job_id: str, delay: float) -> None:
        """Record that ``job_id`` owes a checkpoint restore at its next start."""
        if delay > 0.0:
            self.pending_restart[job_id] = self.pending_restart.get(job_id, 0.0) + delay

    def consume_restart(self, job_id: str) -> float:
        """Pop (and account) the restart delay owed by ``job_id``, if any."""
        delay = self.pending_restart.pop(job_id, 0.0)
        if delay > 0.0:
            self.restarts += 1
            self.restart_delay_seconds += delay
        return delay

    def charge_eviction(
        self, lost_samples: float, lost_seconds: float, num_gpus: int
    ) -> None:
        """Account one eviction's destroyed work."""
        self.evictions += 1
        self.lost_samples += float(lost_samples)
        self.lost_work_seconds += float(lost_seconds)
        self.lost_gpu_seconds += float(lost_seconds) * int(num_gpus)

    def charge_downtime(self, duration: float) -> None:
        """Account capacity lost to down nodes over ``duration`` seconds."""
        if self.down_nodes and duration > 0.0:
            self.downtime_gpu_seconds += len(self._unavailable) * duration

    # -- export -------------------------------------------------------------------------

    def metrics(
        self,
        *,
        gpu_time_busy: Optional[float] = None,
        gpu_time_total: Optional[float] = None,
    ) -> Dict[str, float]:
        """The recovery-metric table stored in ``SimulationResult.faults``.

        ``goodput`` is the fraction of the *surviving* capacity that did
        work which counted: busy GPU-seconds minus the GPU-seconds whose
        progress an eviction later destroyed, over the total GPU-seconds
        net of downtime.
        """
        table: Dict[str, float] = {
            "node_down_events": float(self.node_down_events),
            "node_up_events": float(self.node_up_events),
            "degrade_events": float(self.degrade_events),
            "evictions": float(self.evictions),
            "restarts": float(self.restarts),
            "lost_samples": float(self.lost_samples),
            "lost_work_seconds": float(self.lost_work_seconds),
            "lost_gpu_seconds": float(self.lost_gpu_seconds),
            "restart_delay_seconds": float(self.restart_delay_seconds),
            "downtime_gpu_seconds": float(self.downtime_gpu_seconds),
        }
        if gpu_time_busy is not None and gpu_time_total is not None:
            available = max(gpu_time_total - self.downtime_gpu_seconds, 1e-9)
            useful = max(gpu_time_busy - self.lost_gpu_seconds, 0.0)
            table["goodput"] = min(useful / available, 1.0)
        return table

"""Hierarchical partitioned ONES: independent per-shard searches + a reconciler.

Flat ONES does not scale to thousands of GPUs: the schedule genome spans
every GPU id, so both the population size and the per-candidate scoring
cost grow with the cluster, and the evolution loop — already the
end-to-end floor at the paper's 64-GPU scale — becomes superlinear in
capacity.  This module breaks that coupling with the classic two-level
split (global master / local masters): the cluster is tiled into
fixed-size, node-aligned *partitions* (default: the paper scale, 64
GPUs), each partition runs a full, unmodified
:class:`~repro.core.ones_scheduler.ONESScheduler` over a dense private
view of its shard (:mod:`repro.sim.views`), and a thin global
*reconciler* owns only two decisions:

* **job → partition assignment** — least-loaded partition whose current
  capacity fits the job's requested gang, sticky for the job's lifetime,
  so each local search sees a stable roster;
* **the wide-job path** — a gang larger than one partition can never fit
  inside a shard, so it spills to a dedicated path: whole idle nodes are
  *reserved* (masked out of the owning partitions' views, which
  elastically drain onto their remaining nodes), and once the reserved
  nodes are free the job is gang-placed on them FIFO-style at the user's
  batch size.

Per-partition schedules merge at the boundary by construction: partition
views are disjoint node subsets, so a deployed global allocation is just
the union of the expanded per-partition proposals plus the wide gangs.

Faults compose with partitioning the same way they compose with flat
ONES: a down node simply vanishes from its partition's view (the
node-compaction contract of :mod:`repro.faults.masking`), and a
partition that loses every node has its waiting jobs handed to the
surviving shards.

**Parity contract**: with a single partition covering the whole
cluster (``partition_size >= num_gpus``) the scheduler *delegates
wholesale* to one flat :class:`ONESScheduler` constructed with the same
seed — every callback, every RNG draw, every proposal is the flat
scheduler's own, so the hierarchical path is bit-identical to flat ONES
by construction, not by test luck.  ``tests/test_core_partitioned.py``
pins this differentially over faulted and unfaulted trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.base import (
    CAPABILITIES,
    ClusterState,
    SchedulerBase,
    user_local_batch,
)
from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.core.ones_scheduler import (
    ONESConfig,
    ONESScheduler,
    predictor_health_counters,
)
from repro.jobs.job import EpochRecord, Job
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import active_tracer
from repro.scaling.overhead import ReconfigurationKind
from repro.sim.views import PartitionViewFactory, down_nodes, partition_nodes
from repro.utils.rng import SeedLike, spawn_generator

#: Sentinel partition index of jobs routed to the wide-job path.
WIDE = -1


@dataclass(frozen=True)
class HierarchicalConfig:
    """Configuration of the hierarchical partitioned scheduler.

    ``partition_size`` is in GPUs and must be node-aligned and tile the
    cluster exactly; a size covering the whole cluster is the flat-ONES
    parity mode.  ``ones`` configures every per-partition search (the
    ``EvolutionConfig`` plumbing rides inside it unchanged).
    """

    partition_size: int = 64
    ones: ONESConfig = field(default_factory=ONESConfig)


@dataclass
class _Partition:
    """One shard: its static node slice and its private ONES instance."""

    index: int
    nodes: Tuple[int, ...]
    inner: ONESScheduler


class HierarchicalONESScheduler(SchedulerBase):
    """Two-level ONES: per-partition evolutionary search + global reconciler."""

    name = "ONES-hier"
    capabilities = CAPABILITIES["ONES-hier"]
    reconfiguration_kind = ReconfigurationKind.ELASTIC

    def __init__(
        self, config: Optional[HierarchicalConfig] = None, seed: SeedLike = None
    ) -> None:
        self.config = config or HierarchicalConfig()
        self._seed = seed
        # Resolved lazily on the first callback (the cluster size only
        # becomes known through the first ClusterState).
        self._flat: Optional[ONESScheduler] = None
        self._partitions: List[_Partition] = []
        self._views: Optional[PartitionViewFactory] = None
        self._partition_size: int = 0
        self._gpus_per_node: int = 0
        #: job id -> partition index (WIDE for the wide-job path).
        self._assignment: Dict[str, int] = {}
        #: queued wide job id -> node ids reserved (and being drained) for it.
        self._reserved: Dict[str, Tuple[int, ...]] = {}
        #: visible node set per partition at the previous event, for
        #: capacity-change detection (faults, reservations, give-backs).
        self._last_visible: Dict[int, Tuple[int, ...]] = {}
        self.num_wide_placements = 0

    # ------------------------------------------------------------------ setup

    def _ensure_setup(self, state: ClusterState) -> None:
        if self._flat is not None or self._partitions:
            return
        num_gpus = state.topology.num_gpus
        size = int(self.config.partition_size)
        if size >= num_gpus:
            # Single partition == the whole cluster: delegate wholesale to
            # one flat ONES with the original seed.  This is the parity
            # mode — bit-identical to flat ONES by construction.
            self._flat = ONESScheduler(self.config.ones, seed=self._seed)
            return
        self._partition_size = size
        self._gpus_per_node = state.topology.gpus_per_node
        self._views = PartitionViewFactory(
            state.topology, state.throughput_model.allreduce_efficiency
        )
        for index, nodes in enumerate(partition_nodes(state.topology, size)):
            inner = ONESScheduler(
                self.config.ones,
                seed=spawn_generator(self._seed, f"ones-hier/partition-{index}"),
            )
            inner.trace_label = f"p{index}"
            self._partitions.append(_Partition(index=index, nodes=nodes, inner=inner))

    # ------------------------------------------------------------------ callbacks

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        self._ensure_setup(state)
        if self._flat is not None:
            return self._flat.on_job_arrival(job, state)
        return self._handle(state, "arrival", job=job)

    def on_epoch_end(
        self, job: Job, record: EpochRecord, state: ClusterState
    ) -> Optional[Allocation]:
        self._ensure_setup(state)
        if self._flat is not None:
            return self._flat.on_epoch_end(job, record, state)
        return self._handle(state, "epoch_end", job=job, record=record)

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        self._ensure_setup(state)
        if self._flat is not None:
            return self._flat.on_job_completion(job, state)
        return self._handle(state, "completion", job=job)

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        self._ensure_setup(state)
        if self._flat is not None:
            return self._flat.on_fault(state)
        return self._handle(state, "fault")

    # ------------------------------------------------------------------ reconciler

    def _handle(
        self,
        state: ClusterState,
        kind: str,
        job: Optional[Job] = None,
        record: Optional[EpochRecord] = None,
    ) -> Optional[Allocation]:
        down = down_nodes(state)
        wide_held = self._wide_held_nodes(state)
        self._sync_assignments(state, down, wide_held)
        self._refresh_reservations(state, down, wide_held)
        visible = self._visible_nodes(down, wide_held)
        self._rescue_stranded_jobs(state, visible)

        event_partition: Optional[int] = None
        if job is not None:
            event_partition = self._assignment.get(job.job_id)
        dirty: Set[int] = set()
        if event_partition is not None and event_partition != WIDE:
            dirty.add(event_partition)
        if kind == "fault":
            dirty.update(p.index for p in self._partitions)
        for partition in self._partitions:
            if visible[partition.index] != self._last_visible.get(partition.index):
                dirty.add(partition.index)

        merged = state.allocation.workers()
        changed = False
        # The event owner's partition handles the event itself; every other
        # dirty partition gets an on_fault-style pass.  Views are built,
        # and searches run, owner first and then in index order.
        owner = event_partition if kind != "fault" else None
        order = sorted(dirty, key=lambda index: (index != owner, index))
        views = {
            index: self._view(state, self._partitions[index], visible[index], job)
            for index in order
        }
        proposals: Dict[int, Optional[Allocation]] = {}
        for index in order:
            event = (kind, job, record) if index == owner else ("fault", None, None)
            proposals[index] = self._invoke(self._partitions[index], views[index], *event)

        for index in sorted(proposals):
            proposal = proposals[index]
            if proposal is None:
                continue
            view = views[index]
            real = view.expand(proposal).workers()
            owned = {
                job_id
                for job_id, part in self._assignment.items()
                if part == index
            }
            merged = {g: w for g, w in merged.items() if w.job_id not in owned}
            merged.update(real)
            changed = True

        if self._place_wide_jobs(state, down, merged):
            changed = True

        self._last_visible = visible
        self._prune_assignments(state)
        if not changed:
            return None
        return Allocation(merged)

    # -- job -> partition assignment ----------------------------------------------------

    def _sync_assignments(
        self, state: ClusterState, down: frozenset, wide_held: Set[int]
    ) -> None:
        """Assign every unseen active job to a partition (or the wide path).

        Least-loaded with gang-size fit: among partitions whose *current*
        capacity (visible nodes × GPUs/node) fits the requested gang,
        pick the one with the least outstanding requested-GPU load, ties
        to the lowest index.  Gangs wider than a whole partition spill to
        the wide path.  Assignments are sticky for the job's lifetime.
        """
        unseen = [
            job
            for job_id, job in state.active_jobs().items()
            if job_id not in self._assignment
        ]
        if not unseen:
            return
        unseen.sort(key=lambda j: (j.arrival_time, j.job_id))
        visible = self._visible_nodes(down, wide_held)
        loads = self._partition_loads(state)
        tracer = active_tracer()
        for job in unseen:
            demand = int(job.spec.requested_gpus)
            if demand > self._partition_size:
                self._assignment[job.job_id] = WIDE
                if tracer is not None:
                    tracer.event(
                        "assign",
                        "reconciler",
                        state.now,
                        job=job.job_id,
                        partition="wide",
                        demand=demand,
                    )
                continue
            capacity = {
                index: len(nodes) * self._gpus_per_node
                for index, nodes in visible.items()
            }
            fitting = [i for i, cap in capacity.items() if cap >= demand]
            if fitting:
                chosen = min(fitting, key=lambda i: (loads[i], i))
            else:
                # Nothing currently fits (heavy faults / loans): park the
                # job on the partition with the most capacity; it waits
                # there and the partition schedules it when nodes return.
                chosen = max(capacity, key=lambda i: (capacity[i], -i))
            self._assignment[job.job_id] = chosen
            loads[chosen] += demand
            if tracer is not None:
                tracer.event(
                    "assign",
                    "reconciler",
                    state.now,
                    job=job.job_id,
                    partition=chosen,
                    demand=demand,
                )

    def _partition_loads(self, state: ClusterState) -> Dict[int, int]:
        """Outstanding requested-GPU load of each partition's assigned jobs."""
        loads = {p.index: 0 for p in self._partitions}
        active = state.active_jobs()
        for job_id, index in self._assignment.items():
            if index == WIDE:
                continue
            job = active.get(job_id)
            if job is not None:
                loads[index] += int(job.spec.requested_gpus)
        return loads

    def _rescue_stranded_jobs(
        self, state: ClusterState, visible: Dict[int, Tuple[int, ...]]
    ) -> None:
        """Re-home waiting jobs stuck on partitions with zero visible nodes."""
        active = state.active_jobs()
        stranded = [
            job_id
            for job_id, index in self._assignment.items()
            if index != WIDE
            and not visible[index]
            and job_id in active
            and not active[job_id].is_running
        ]
        for job_id in stranded:
            del self._assignment[job_id]
        if stranded:
            self._sync_assignments(
                state, down_nodes(state), self._wide_held_nodes(state)
            )

    def _prune_assignments(self, state: ClusterState) -> None:
        active = state.active_jobs()
        for job_id in [j for j in self._assignment if j not in active]:
            del self._assignment[job_id]
            self._reserved.pop(job_id, None)

    # -- per-partition views & evolution ------------------------------------------------

    def _visible_nodes(
        self, down: frozenset, wide_held: Set[int]
    ) -> Dict[int, Tuple[int, ...]]:
        reserved: Set[int] = set()
        for nodes in self._reserved.values():
            reserved.update(nodes)
        hidden = set(down) | set(wide_held) | reserved
        if not hidden:
            return {p.index: p.nodes for p in self._partitions}
        return {
            p.index: tuple(n for n in p.nodes if n not in hidden)
            for p in self._partitions
        }

    def _partition_jobs(self, state: ClusterState, index: int) -> Dict[str, Job]:
        active = state.active_jobs()
        return {
            job_id: active[job_id]
            for job_id, part in self._assignment.items()
            if part == index and job_id in active
        }

    def _view(
        self,
        state: ClusterState,
        partition: _Partition,
        nodes: Tuple[int, ...],
        event_job: Optional[Job],
    ):
        jobs = self._partition_jobs(state, partition.index)
        if (
            event_job is not None
            and self._assignment.get(event_job.job_id) == partition.index
        ):
            # Completion events arrive after the job left active_jobs();
            # the inner scheduler still needs to see it for bookkeeping.
            jobs.setdefault(event_job.job_id, event_job)
        assert self._views is not None
        return self._views.view(state, partition.index, nodes, jobs)

    def _invoke(
        self,
        partition: _Partition,
        view,
        kind: str,
        job: Optional[Job],
        record: Optional[EpochRecord],
    ) -> Optional[Allocation]:
        inner = partition.inner
        if view is None:
            # The partition has no visible nodes (blackout / full loan).
            # Keep the inner bookkeeping consistent without evolving.
            if kind == "arrival" and job is not None:
                inner.limiter.on_job_arrival(job)
            elif kind == "completion" and job is not None:
                inner.predictor.observe_completion(job)
                inner.limiter.forget(job.job_id)
                inner._epochs_at_last_update.pop(job.job_id, None)
            return None
        if kind == "arrival":
            return inner.on_job_arrival(job, view.state)
        if kind == "epoch_end":
            return inner.on_epoch_end(job, record, view.state)
        if kind == "completion":
            return inner.on_job_completion(job, view.state)
        return inner.on_fault(view.state)

    # -- the wide-job path --------------------------------------------------------------

    def _wide_jobs(self, state: ClusterState) -> Dict[str, Job]:
        active = state.active_jobs()
        return {
            job_id: active[job_id]
            for job_id, part in self._assignment.items()
            if part == WIDE and job_id in active
        }

    def _wide_held_nodes(self, state: ClusterState) -> Set[int]:
        """Nodes currently occupied by placed wide gangs (derived, not stored)."""
        held: Set[int] = set()
        for job_id, part in self._assignment.items():
            if part != WIDE:
                continue
            for gpu in state.allocation.gpus_of(job_id):
                held.add(int(state.topology.node_of(gpu)))
        return held

    def _queued_wide(self, state: ClusterState) -> List[Job]:
        """Admitted wide jobs holding no GPUs, FIFO by arrival."""
        queued = [
            job
            for job in self._wide_jobs(state).values()
            if state.allocation.config_of(job.job_id) is None
        ]
        queued.sort(key=lambda j: (j.arrival_time, j.job_id))
        return queued

    def _refresh_reservations(
        self, state: ClusterState, down: frozenset, wide_held: Set[int]
    ) -> None:
        """Reserve (and repair) whole-node claims for queued wide gangs.

        Reserved nodes disappear from their partitions' views, so the
        partitions elastically drain them; the gang is placed the moment
        its reservation is fully idle.  Reservations are sticky —
        re-picking every event would thrash the drains — and only
        re-picked when a reserved node goes down.
        """
        queued = self._queued_wide(state)
        queued_ids = {job.job_id for job in queued}
        for job_id in [j for j in self._reserved if j not in queued_ids]:
            del self._reserved[job_id]
        if not queued:
            return
        taken: Set[int] = set()
        for nodes in self._reserved.values():
            taken.update(nodes)
        busy = self._busy_gpus_per_node(state)
        for job in queued:
            need = math.ceil(int(job.spec.requested_gpus) / self._gpus_per_node)
            current = [
                n for n in self._reserved.get(job.job_id, ()) if n not in down
            ]
            missing = need - len(current)
            if missing <= 0:
                self._reserved[job.job_id] = tuple(current)
                continue
            candidates = [
                n
                for n in range(state.topology.num_nodes)
                if n not in down
                and n not in wide_held
                and n not in taken
                and n not in current
            ]
            # Fewest busy GPUs first: prefer nodes that drain fastest.
            candidates.sort(key=lambda n: (busy.get(n, 0), n))
            if len(candidates) < missing:
                # Not enough nodes in the whole cluster right now; keep
                # what we have and wait (strict FIFO: later wide jobs do
                # not overtake).
                self._reserved[job.job_id] = tuple(current)
                break
            picked = current + candidates[:missing]
            picked.sort()
            self._reserved[job.job_id] = tuple(picked)
            taken.update(picked)
            tracer = active_tracer()
            if tracer is not None:
                tracer.event(
                    "reserve",
                    "reconciler",
                    state.now,
                    job=job.job_id,
                    nodes=len(picked),
                    newly_reserved=missing,
                )

    def _busy_gpus_per_node(self, state: ClusterState) -> Dict[int, int]:
        busy: Dict[int, int] = {}
        for gpu in state.allocation.used_gpus():
            node = int(state.topology.node_of(gpu))
            busy[node] = busy.get(node, 0) + 1
        return busy

    def _place_wide_jobs(
        self,
        state: ClusterState,
        down: frozenset,
        merged: Dict[int, WorkerAssignment],
    ) -> bool:
        """Gang-place queued wide jobs whose reservations are fully idle."""
        used_gpus = set(merged)
        placed_any = False
        for job in self._queued_wide(state):
            nodes = self._reserved.get(job.job_id, ())
            need = math.ceil(int(job.spec.requested_gpus) / self._gpus_per_node)
            if len(nodes) < need:
                break  # strict FIFO
            gpus: List[int] = []
            ready = True
            for node in nodes:
                if node in down:
                    ready = False
                    break
                for gpu in state.topology.gpus_of_node(node):
                    if int(gpu) in used_gpus:
                        ready = False
                        break
                    gpus.append(int(gpu))
                if not ready:
                    break
            if not ready:
                break  # still draining (or a reserved node went down)
            local = user_local_batch(job)
            for gpu in gpus[: int(job.spec.requested_gpus)]:
                merged[gpu] = WorkerAssignment(job.job_id, local)
                used_gpus.add(gpu)
            del self._reserved[job.job_id]
            self.num_wide_placements += 1
            placed_any = True
            tracer = active_tracer()
            if tracer is not None:
                tracer.event(
                    "wide_place",
                    "reconciler",
                    state.now,
                    job=job.job_id,
                    num_gpus=int(job.spec.requested_gpus),
                    nodes=len(nodes),
                )
        return placed_any

    # ------------------------------------------------------------------ introspection

    def profile_phases(self) -> Dict[str, float]:
        """Aggregated scheduler-side phases across every inner instance."""
        if self._flat is not None:
            return self._flat.profile_phases()
        totals: Dict[str, float] = {"gpr_refit": 0.0}
        for partition in self._partitions:
            for key, value in partition.inner.profile_phases().items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def metrics_registry(self) -> MetricsRegistry:
        """Reconciler gauges plus inner-counter rollups, built on demand.

        In parity mode this is the flat scheduler's registry with a
        ``partitions`` gauge added, matching :meth:`describe_state`.
        """
        if self._flat is not None:
            registry = self._flat.metrics_registry()
            registry.gauge("partitions", help="scheduler shards").set(1)
            return registry
        registry = MetricsRegistry()
        registry.set_gauges(
            {
                "partitions": len(self._partitions),
                "partition_size": self._partition_size,
                "assigned_jobs": sum(
                    1 for p in self._assignment.values() if p != WIDE
                ),
                "wide_jobs": sum(1 for p in self._assignment.values() if p == WIDE),
                "reserved_nodes": sum(len(n) for n in self._reserved.values()),
            },
            help="reconciler bookkeeping",
        )
        stats = [p.inner.search.scoring_engine.stats() for p in self._partitions]
        counters = {
            "wide_placements": self.num_wide_placements,
            "full_updates": sum(p.inner.num_full_updates for p in self._partitions),
            "incremental_fills": sum(
                p.inner.num_incremental_fills for p in self._partitions
            ),
            "throughput_table_reuses": sum(
                p.inner.num_table_reuses for p in self._partitions
            ),
            "scoring_delta_generations": sum(
                s["delta_generations"] for s in stats
            ),
            "scoring_full_rebuilds": sum(s["full_rebuilds"] for s in stats),
            "scoring_table_swaps": sum(s["table_swaps"] for s in stats),
            **predictor_health_counters(
                p.inner.predictor.gpr_health for p in self._partitions
            ),
        }
        for name, value in counters.items():
            registry.counter(name, help="rollup across partitions").inc(value)
        # A gauge, as in the flat scheduler's registry.
        registry.gauge("predictor_fits", help="rollup across partitions").set(
            sum(p.inner.predictor.fit_count for p in self._partitions)
        )
        return registry

    def describe_state(self) -> Dict[str, object]:
        """Debug summary: reconciler bookkeeping plus per-partition rollups."""
        if self._flat is not None:
            summary = dict(self._flat.describe_state())
            summary["partitions"] = 1
            return summary
        return dict(self.metrics_registry().values())

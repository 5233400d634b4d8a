"""The ONES scheduler: online evolutionary batch-size orchestration.

ONES wires together the pieces of §3 into the common scheduler
interface:

* an online :class:`~repro.prediction.predictor.ProgressPredictor`
  producing per-job Beta progress distributions (Eq. 6),
* a :class:`~repro.core.batch_limit.BatchSizeLimiter` applying the
  start / resume / scale-up / scale-down policies to ``R_j`` (§3.3.2),
* an :class:`~repro.core.evolution.EvolutionarySearch` over schedule
  genomes scored with the SRUF objective (Eq. 8 / Algorithm 1), each
  generation one pass of the genome-matrix kernel
  (:mod:`repro.core.evolution_batched`),
* elastic re-configuration (Fig. 11) so deploying a new candidate costs
  about a second per affected job rather than tens of seconds.

Deployment policy (§3.2.2 "Update"): the best candidate ``S*`` replaces
the deployed schedule only once every running job has completed at least
one epoch since the previous update — but newly arrived or resumed jobs
may be placed onto *idle* GPUs immediately (the "immediate response to
online workloads" the paper emphasises), because that touches no running
job.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.baselines.base import CAPABILITIES, ClusterState, SchedulerBase
from repro.cluster.allocation import Allocation
from repro.core.batch_limit import BatchLimitConfig, BatchSizeLimiter
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.operators import EvolutionContext
from repro.core.schedule import Schedule
from repro.jobs.job import EpochRecord, Job
from repro.jobs.throughput import (
    BoundedMemo,
    ThroughputTable,
    derive_global_batch,
    split_batch,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import active_tracer
from repro.prediction.gpr import FitHealth
from repro.prediction.predictor import PredictorConfig, ProgressPredictor
from repro.scaling.overhead import ReconfigurationKind
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class ONESConfig:
    """Top-level configuration of the ONES scheduler."""

    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    batch_limits: BatchLimitConfig = field(default_factory=BatchLimitConfig)
    #: Allow immediate placement of pending jobs onto idle GPUs between
    #: full schedule updates.
    immediate_fill: bool = True
    #: Bound on the cross-invocation throughput memo (model evaluations
    #: keyed by (model, global batch, worker count, crosses servers)).
    throughput_memo_entries: int = 65536


def predictor_health_counters(healths: Iterable[FitHealth]) -> Dict[str, int]:
    """GPR fit-health counters summed over ``healths``, named for a registry."""
    total = FitHealth()
    for health in healths:
        total.add(health)
    return {f"predictor_{name}": value for name, value in asdict(total).items()}


class ONESScheduler(SchedulerBase):
    """Online evolutionary scheduler with elastic batch-size orchestration."""

    name = "ONES"
    capabilities = CAPABILITIES["ONES"]
    reconfiguration_kind = ReconfigurationKind.ELASTIC

    def __init__(self, config: Optional[ONESConfig] = None, seed: SeedLike = None) -> None:
        self.config = config or ONESConfig()
        self._rng = as_generator(seed)
        self.predictor = ProgressPredictor(self.config.predictor, seed=self._rng)
        self.limiter = BatchSizeLimiter(self.config.batch_limits)
        self.search = EvolutionarySearch(self.config.evolution, seed=self._rng)
        self._epochs_at_last_update: Dict[str, int] = {}
        self._has_deployed: bool = False
        #: Virtual (compacted) topologies per down-node set, so repeated
        #: events during one outage reuse the same instances.
        self._virtual_clusters: Dict[frozenset, Tuple] = {}
        self._throughput_memo = BoundedMemo(self.config.throughput_memo_entries)
        self.last_throughput_table: Optional[ThroughputTable] = None
        #: Inputs the cached table was built from: (roster, num_gpus,
        #: per-roster-job batch limits).  The throughput model is held
        #: as a strong reference and compared by identity, so fault
        #: masking / partition-view swaps (different virtual model
        #: objects) invalidate the cache structurally.
        self._table_signature: Optional[Tuple] = None
        self._table_model: Optional[object] = None
        self.num_table_reuses: int = 0
        self.num_full_updates: int = 0
        self.num_incremental_fills: int = 0
        #: Shard label stamped onto trace records ("" for a flat
        #: scheduler; the hierarchical reconciler sets "p<i>" per
        #: partition).  A plain string so pickled inner schedulers
        #: (parallel evolution workers) carry no recorder reference.
        self.trace_label: str = ""

    # ------------------------------------------------------------------ callbacks

    def on_job_arrival(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        self.limiter.on_job_arrival(job)
        return self._evolve_and_maybe_deploy(state)

    def on_epoch_end(
        self, job: Job, record: EpochRecord, state: ClusterState
    ) -> Optional[Allocation]:
        contended = bool(state.pending_jobs())
        self.limiter.on_epoch_end(
            job, executed_time=job.executed_time(state.now), contended=contended
        )
        return self._evolve_and_maybe_deploy(state)

    def on_job_completion(self, job: Job, state: ClusterState) -> Optional[Allocation]:
        self.predictor.observe_completion(job)
        self.limiter.forget(job.job_id)
        self._epochs_at_last_update.pop(job.job_id, None)
        return self._evolve_and_maybe_deploy(state)

    def on_fault(self, state: ClusterState) -> Optional[Allocation]:
        """Capacity changed: evolve a schedule for the surviving cluster.

        Recovery is the same evolutionary pass as every other event —
        the elastic advantage the paper claims is precisely that ONES
        can re-spread jobs without checkpoint/restart cycles.
        """
        return self._evolve_and_maybe_deploy(state)

    # ------------------------------------------------------------------ context plumbing

    def _ensure_limits(self, state: ClusterState) -> None:
        for job in state.active_jobs().values():
            if job.job_id not in self.limiter.limits():
                self.limiter.on_job_arrival(job)

    def _throughput_table(self, state: ClusterState, roster: Tuple[str, ...]) -> ThroughputTable:
        """Per-invocation throughput lookup table ``X_j(c)``.

        Replaces the previous per-(job, candidate) memoised callback: the
        table is lazily filled, hard-bounded at
        ``jobs × (num_gpus + 1) × 2`` entries (two placement-locality
        planes per count), reused across every candidate and evolution
        iteration of this invocation, and backed by a bounded
        cross-invocation memo of raw model evaluations.

        Since the table's entries depend only on the roster, the
        per-job batch limits ``R_j``, the cluster size and the model,
        the previous event's table (and its lazily-filled entries) is
        reused verbatim whenever none of those changed — the common
        case for epoch-end bursts between limit adjustments.  Any
        change builds a fresh table with a new
        :attr:`~repro.jobs.throughput.ThroughputTable.version`, which
        is how dependent caches learn the old values are dead.
        """
        active = state.active_jobs()
        signature = (
            roster,
            state.topology.num_gpus,
            tuple(
                int(
                    self.limiter.limits().get(
                        job_id, active[job_id].spec.base_batch
                    )
                )
                for job_id in roster
            ),
        )
        cached = self.last_throughput_table
        if (
            cached is not None
            and self._table_model is state.throughput_model
            and self._table_signature == signature
        ):
            self.num_table_reuses += 1
            return cached
        table = ThroughputTable(
            state.throughput_model,
            active,
            self.limiter.limits(),
            state.topology.num_gpus,
            roster=roster,
            memo=self._throughput_memo,
        )
        self.last_throughput_table = table
        self._table_signature = signature
        self._table_model = state.throughput_model
        return table

    def _build_context(self, state: ClusterState) -> EvolutionContext:
        self._ensure_limits(state)
        active = state.active_jobs()
        roster = tuple(sorted(active))
        distributions = self.predictor.progress_distributions(active)
        remaining = {
            job_id: self.predictor.remaining_workload(
                job, distributions[job_id].mean
            )
            for job_id, job in active.items()
        }
        executed = {
            job_id: job.executed_time(state.now) for job_id, job in active.items()
        }
        never_started = {
            job_id for job_id, job in active.items() if job.first_start_time is None
        }
        return EvolutionContext(
            jobs=dict(active),
            roster=roster,
            limits=self.limiter.limits(),
            distributions=distributions,
            remaining_workload=remaining,
            executed_time=executed,
            num_gpus=state.topology.num_gpus,
            never_started=never_started,
            rng=self._rng,
            throughput_table=self._throughput_table(state, roster),
        )

    # ------------------------------------------------------------------ deployment policy

    def _may_full_update(self, state: ClusterState) -> bool:
        """True once every running job finished ≥1 epoch since the last update."""
        if not self._has_deployed:
            return True
        running = state.running_jobs()
        if not running:
            return True
        for job_id, job in running.items():
            baseline = self._epochs_at_last_update.get(job_id, 0)
            if job.epochs_completed < baseline + 1:
                return False
        return True

    def _record_update(self, state: ClusterState) -> None:
        self._has_deployed = True
        self._epochs_at_last_update = {
            job_id: job.epochs_completed for job_id, job in state.active_jobs().items()
        }

    def _evolve_and_maybe_deploy(self, state: ClusterState) -> Optional[Allocation]:
        masked = state.unavailable_gpus
        if masked:
            if len(masked) >= state.topology.num_gpus:
                # Transient blackout (only reachable through a
                # hand-written plan with a coincident outage hand-off):
                # nothing to schedule onto until a NODE_UP restores
                # capacity an instant later.
                return None
            # Down nodes: evolve over a dense *virtual* cluster of the
            # surviving servers (node compaction preserves placement
            # locality exactly on the homogeneous star fabric), then map
            # the winning allocation back to real GPU ids.  The genome
            # layer never has to learn about holes in the id space.
            view = self._compact_view(state)
            proposal = self._evolve_on(view.state)
            return view.expand(proposal) if proposal is not None else None
        return self._evolve_on(state)

    def _compact_view(self, state: ClusterState):
        from repro.faults.masking import compact_state, virtual_cluster

        key = state.unavailable_gpus
        cached = self._virtual_clusters.get(key)
        if cached is None:
            cached = virtual_cluster(state)
            self._virtual_clusters[key] = cached
        topology, model = cached
        return compact_state(state, topology, model)

    def _evolve_on(self, state: ClusterState) -> Optional[Allocation]:
        active = state.active_jobs()
        if not active:
            return None

        can_update = self._may_full_update(state)
        if not can_update and not (state.pending_jobs() and state.free_gpus()):
            # Nothing this event could change: every running job is
            # mid-epoch (no full update allowed yet) and there is no
            # pending job / idle GPU to fill.  Skip the evolution work.
            return None

        ctx = self._build_context(state)

        if can_update:
            current = Schedule.from_allocation(
                ctx.roster, state.topology.num_gpus, state.allocation
            )
            tracer = active_tracer()
            span = stats_before = None
            if tracer is not None:
                stats_before = dict(self.search.scoring_engine.stats())
                span = tracer.begin_span(
                    "evolve",
                    "ones",
                    state.now,
                    shard=self.trace_label,
                    active_jobs=len(active),
                )
            best, _score = self.search.step(ctx, current=current)
            allocation = best.to_allocation(ctx.jobs, ctx.limits)
            if span is not None:
                self._trace_decision(
                    tracer,
                    span,
                    state.now,
                    _score,
                    stats_before,
                    deployed=allocation != state.allocation,
                )
            if allocation == state.allocation:
                self._record_update(state)
                return None
            self._apply_resume_policy(state, allocation)
            self._record_update(state)
            self.num_full_updates += 1
            return allocation

        if self.config.immediate_fill:
            filled = self._incremental_fill(state, ctx)
            if filled is not None:
                self.num_incremental_fills += 1
                tracer = active_tracer()
                if tracer is not None:
                    tracer.event(
                        "incremental_fill",
                        "ones",
                        state.now,
                        shard=self.trace_label,
                        placed_jobs=len(filled.jobs()),
                    )
                return filled
        return None

    def _trace_decision(self, tracer, span, now, score, stats_before, deployed):
        """Emit the per-generation, cache-delta and decision records.

        Called only when tracing is active.  Everything read here is a
        pure observation of state the search already computed — no RNG,
        no mutation — so traced and untraced runs stay bit-identical.
        """
        scores = self.search.last_iteration_scores
        first_generation = self.search.iterations_run - len(scores)
        for offset, best_score in enumerate(scores):
            tracer.event(
                "generation",
                "ones",
                now,
                shard=self.trace_label,
                generation=first_generation + offset,
                best_score=best_score,
            )
        stats_after = self.search.scoring_engine.stats()
        cache_delta = {
            key: stats_after[key] - stats_before.get(key, 0) for key in stats_after
        }
        if any(cache_delta.values()):
            tracer.event(
                "scoring_cache", "ones", now, shard=self.trace_label, **cache_delta
            )
        tracer.event(
            "reconfig_decision",
            "ones",
            now,
            shard=self.trace_label,
            score=float(score),
            population_size=self.search.population_size,
            generations=len(scores),
            deployed=deployed,
        )
        tracer.end_span(span, t=now)

    def _apply_resume_policy(self, state: ClusterState, allocation: Allocation) -> None:
        """Halve ``R_j`` of jobs that stay waiting after this update (Resume policy)."""
        placed = allocation.jobs()
        for job_id, job in state.active_jobs().items():
            if job_id in placed:
                continue
            if not job.is_running:
                # It was waiting and remains waiting: rejection.
                self.limiter.on_schedule_rejection(job)
            else:
                # It is being preempted: it keeps its limit for later resume.
                self.limiter.on_preemption(job)

    def _incremental_fill(
        self, state: ClusterState, ctx: EvolutionContext
    ) -> Optional[Allocation]:
        """Place pending jobs onto idle GPUs without touching running jobs."""
        free = state.free_gpus()
        pending = [
            job
            for job in state.pending_jobs().values()
            if job.job_id in ctx.roster
        ]
        if not free or not pending:
            return None
        # Shortest expected remaining work first (SRUF for the fill order).
        pending.sort(key=lambda j: ctx.remaining_workload.get(j.job_id, float("inf")))
        mapping = state.allocation.as_dict()
        changed = False
        for job in pending:
            if not free:
                break
            desired = ctx.desired_gpus(job.job_id)
            take = min(desired, len(free))
            if take <= 0:
                continue
            gpus = free[:take]
            free = free[take:]
            global_batch = derive_global_batch(
                take, job.spec.max_local_batch, ctx.limit(job.job_id), job.dataset_size
            )
            for gpu, batch in zip(gpus, split_batch(global_batch, take)):
                mapping[gpu] = (job.job_id, max(1, batch))
            changed = True
        if not changed:
            return None
        grouped: Dict[str, List[Tuple[int, int]]] = {}
        for gpu, (job_id, batch) in mapping.items():
            grouped.setdefault(job_id, []).append((gpu, batch))
        return Allocation.from_job_map(grouped)

    # ------------------------------------------------------------------ introspection

    def profile_phases(self) -> Dict[str, float]:
        """Scheduler-side wall-clock phases picked up by ``SimProfile``.

        The simulator merges these into ``SimulationResult.profile`` when
        the run was configured with ``collect_profile=True``, which is
        how the GPR-refit share of a run becomes measurable.  The
        ``evo_*`` operator phases and the ``rescore_full`` /
        ``rescore_delta`` attribution come from the generation kernel
        (see :func:`repro.core.evolution_batched.run_generation`), so a
        ``--profile`` run shows exactly where a generation's wall-clock
        goes and how much of it the score-decomposition cache absorbed.
        """
        phases = {"gpr_refit": self.predictor.refit_seconds}
        phases.update(self.search.phase_seconds)
        return phases

    def metrics_registry(self) -> MetricsRegistry:
        """The scheduler's live counters as a metrics registry.

        Built on demand from plain instance counters (the hot path never
        touches registry objects, and pickled inner schedulers in the
        hierarchical process pool stay registry-free).  Metric names
        deliberately match the historical ``describe_state()`` keys.
        """
        registry = MetricsRegistry()
        scoring = self.search.scoring_engine.stats()
        gauges = {
            "population_size": self.search.population_size,
            "iterations_run": self.search.iterations_run,
            "predictor_fits": self.predictor.fit_count,
            "tracked_limits": len(self.limiter.limits()),
            "throughput_memo_entries": len(self._throughput_memo),
        }
        registry.set_gauges(gauges, help="ONES search state")
        counters = {
            "full_updates": self.num_full_updates,
            "incremental_fills": self.num_incremental_fills,
            "throughput_table_reuses": self.num_table_reuses,
            "scoring_delta_generations": scoring["delta_generations"],
            "scoring_full_rebuilds": scoring["full_rebuilds"],
            "scoring_table_swaps": scoring["table_swaps"],
            **predictor_health_counters([self.predictor.gpr_health]),
        }
        for name, value in counters.items():
            registry.counter(name, help="ONES scheduler counter").inc(value)
        return registry

    def describe_state(self) -> Dict[str, object]:
        """Debug summary used in logs and the quickstart example.

        Every field comes from :meth:`metrics_registry` so the CLI, the
        service ``/metrics`` op and this summary can never drift.
        """
        return dict(self.metrics_registry().values())

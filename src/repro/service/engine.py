"""The scheduler service engine: a live simulator behind a submission API.

:class:`SchedulerService` wraps an *online* :class:`ClusterSimulator`
(kernel stepped incrementally, arrivals injected mid-run) with the
boundary layers a service needs:

* schema validation and per-tenant quota admission
  (:mod:`repro.service.schemas`),
* deterministic workload instantiation — a submission names a job type
  or a Table-2 template, the engine draws the spec with the service's
  seeded RNG, so a given submission sequence always produces the same
  jobs,
* decision-latency accounting: every kernel step is timed, and the step
  that processes a submission's ``JOB_ARRIVAL`` *is* that submission's
  decision latency — the quantity the service's SLOs are stated over,
* per-tenant telemetry (goodput, queue depth, decision stream) published
  through a :class:`~repro.service.streams.StreamHub`.

Time modes.  In ``virtual`` mode the clock only moves when events are
processed: submissions arrive back-to-back at the current virtual time
(or at explicit timestamps during trace replay), which is what makes a
replayed trace bit-identical to an offline
:meth:`~repro.sim.simulator.ClusterSimulator.run`.  In ``wall`` mode the
engine maps elapsed wall-clock onto virtual seconds at ``time_scale``×,
so the simulated cluster "lives" alongside its clients.

The engine itself is synchronous and single-threaded; the asyncio
transport (:mod:`repro.service.http`) serialises calls into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.events import Event, EventKind
from repro.cluster.topology import make_longhorn_cluster
from repro.experiments.registry import create_scheduler
from repro.jobs.job import JobSpec
from repro.obs.metrics import LatencyHistogram
from repro.obs.trace import active_tracer
from repro.service.schemas import (
    AdmissionError,
    JobSubmission,
    JobType,
    PlacementDecision,
    SchemaValidationError,
    ServiceConfig,
    TenantQuota,
)
from repro.service.streams import StreamHub
from repro.sim.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from repro.workload.replay import jobspec_from_dict
from repro.workload.tasks import TaskFamily, build_workload_catalog, make_job_spec


@dataclass
class TenantState:
    """Live accounting of one tenant."""

    quota: TenantQuota
    submitted: int = 0
    rejected: int = 0
    placed: int = 0
    queued: int = 0
    completed: int = 0
    active_jobs: List[str] = field(default_factory=list)
    outstanding_gpus: int = 0
    #: Σ attained service (GPU-agnostic samples-side seconds) of completed jobs.
    service_seconds: float = 0.0
    #: Σ JCT over completed jobs (for mean-JCT-per-tenant telemetry).
    jct_seconds: float = 0.0
    decision_latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    def as_dict(self) -> Dict[str, object]:
        """Telemetry snapshot of this tenant."""
        return {
            "tenant": self.quota.tenant,
            "submitted": int(self.submitted),
            "rejected": int(self.rejected),
            "placed": int(self.placed),
            "queued": int(self.queued),
            "completed": int(self.completed),
            "active_jobs": int(len(self.active_jobs)),
            "outstanding_gpus": int(self.outstanding_gpus),
            "goodput_service_seconds": float(self.service_seconds),
            "mean_jct": (
                self.jct_seconds / self.completed if self.completed else 0.0
            ),
            "decision_latency": self.decision_latency.as_dict(),
        }


class SchedulerService:
    """Online job-submission front end over a live :class:`ClusterSimulator`."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        stream_capacity: int = 4096,
    ) -> None:
        self.config = config
        self.topology = make_longhorn_cluster(config.num_gpus)
        self.scheduler = create_scheduler(
            config.scheduler, seed=config.seed, **dict(config.scheduler_options)
        )
        self.sim = ClusterSimulator(
            self.topology,
            self.scheduler,
            trace=[],
            config=SimulationConfig(
                max_time=config.max_time, max_events=config.max_events
            ),
            online=True,
        )
        self.sim.start()
        self.streams = StreamHub(capacity=stream_capacity)
        self.catalog = build_workload_catalog()
        self._catalog_by_name = {t.name: t for t in self.catalog}
        self._catalog_names: Tuple[str, ...] = tuple(self._catalog_by_name)
        self._by_family = {
            JobType.CV.value: [t for t in self.catalog if t.family is TaskFamily.CV],
            JobType.NLP.value: [t for t in self.catalog if t.family is TaskFamily.NLP],
            JobType.ANY.value: list(self.catalog),
        }
        # One seeded generator drives template draws and convergence
        # jitter in submission order: same submissions in, same jobs out.
        self._rng = np.random.Generator(np.random.PCG64(int(config.seed)))
        self.tenants: Dict[str, TenantState] = {
            quota.tenant: TenantState(quota=quota) for quota in config.tenants
        }
        self._open_admission = not config.tenants
        self._submission_counter = 0
        self._tenant_of_job: Dict[str, str] = {}
        self._completed_seen: set = set()
        self.decision_latency = LatencyHistogram()
        self.step_latency: Dict[str, LatencyHistogram] = {}
        self._started_wall = perf_counter()
        self._decision_wall_total = 0.0
        self.draining = False

    # -- time ---------------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time of the live simulator."""
        return self.sim.now

    def wall_virtual_target(self) -> float:
        """Where the virtual clock *should* be in wall mode (capped at the horizon)."""
        elapsed = perf_counter() - self._started_wall
        return min(elapsed * self.config.time_scale, self.config.max_time)

    def _assign_arrival(self, submission: JobSubmission, last_arrival: float) -> float:
        if submission.arrival_time is not None:
            return max(float(submission.arrival_time), self.sim.kernel.now, last_arrival)
        if self.config.mode == "wall":
            return max(self.wall_virtual_target(), self.sim.kernel.now, last_arrival)
        return max(self.sim.kernel.now, last_arrival)

    # -- kernel stepping (all steps are timed) ------------------------------------------

    def _timed_step(self) -> Optional[Event]:
        start = perf_counter()
        event = self.sim.kernel.step()
        if event is None:
            return None
        elapsed = perf_counter() - start
        kind_name = event.kind.name
        hist = self.step_latency.get(kind_name)
        if hist is None:
            hist = LatencyHistogram()
            self.step_latency[kind_name] = hist
        hist.record(elapsed)
        self._after_step(event)
        return event

    def _after_step(self, event: Event) -> None:
        # Completions only happen inside the completing job's own
        # EPOCH_END, so a constant-time check after that kind suffices.
        if event.kind is not EventKind.EPOCH_END or event.job_id is None:
            return
        job = self.sim.jobs.get(event.job_id)
        if job is None or not job.is_completed:
            return
        if event.job_id in self._completed_seen:
            return
        self._completed_seen.add(event.job_id)
        tenant_name = self._tenant_of_job.get(event.job_id)
        state = self.tenants.get(tenant_name) if tenant_name else None
        metrics = job.completion_metrics()
        if state is not None:
            state.completed += 1
            if event.job_id in state.active_jobs:
                state.active_jobs.remove(event.job_id)
            state.outstanding_gpus = max(
                0, state.outstanding_gpus - int(job.spec.requested_gpus)
            )
            state.service_seconds += float(metrics.get("attained_service", 0.0))
            state.jct_seconds += float(metrics.get("jct", 0.0))
        self.streams.publish(
            tenant_name or "unknown",
            {
                "type": "completion",
                "job_id": event.job_id,
                "tenant": tenant_name or "unknown",
                "virtual_time": float(self.sim.now),
                "jct": float(metrics.get("jct", 0.0)),
                "queuing_time": float(metrics.get("queuing_time", 0.0)),
            },
        )

    def advance_to(self, to_time: float) -> int:
        """Process every event strictly before ``to_time``; returns the count."""
        processed = 0
        target = min(float(to_time), self.config.max_time + 1.0)
        while True:
            queue = self.sim.kernel.events
            if not queue or queue.peek().time >= target:
                break
            if self._timed_step() is None:
                break
            processed += 1
        return processed

    # -- submission path ----------------------------------------------------------------

    def submit(self, submission: JobSubmission) -> PlacementDecision:
        """Validate, admit, inject and decide one submission.

        Never raises for a bad submission — validation and admission
        failures come back as ``status="rejected"`` decisions so a
        remote client always gets a structured answer.
        """
        self._submission_counter += 1
        submission_id = f"sub-{self._submission_counter:06d}"
        try:
            submission.validate(self.config.num_gpus, self._catalog_names)
            state = self._admit(submission)
        except (SchemaValidationError, AdmissionError) as exc:
            decision = PlacementDecision(
                submission_id=submission_id,
                job_id="",
                tenant=submission.tenant,
                status="rejected",
                virtual_time=float(self.sim.now),
                queue_depth=self.queue_depth(),
                reason=str(exc),
            )
            tenant_state = self.tenants.get(submission.tenant)
            if tenant_state is not None:
                tenant_state.submitted += 1
                tenant_state.rejected += 1
            self.streams.publish(submission.tenant or "unknown", decision.to_dict())
            self._trace_decision(decision)
            return decision

        last_arrival = (
            self.sim.trace[-1].arrival_time if self.sim.trace else 0.0
        )
        arrival_time = self._assign_arrival(submission, last_arrival)
        spec = self._build_spec(submission, arrival_time)
        state.submitted += 1

        if spec.arrival_time > self.config.max_time:
            state.rejected += 1
            decision = PlacementDecision(
                submission_id=submission_id,
                job_id=spec.job_id,
                tenant=submission.tenant,
                status="rejected",
                virtual_time=float(self.sim.now),
                queue_depth=self.queue_depth(),
                reason=(
                    f"arrival t={spec.arrival_time:.1f} is beyond the service "
                    f"horizon max_time={self.config.max_time:.1f}"
                ),
            )
            self.streams.publish(submission.tenant, decision.to_dict())
            self._trace_decision(decision)
            return decision

        # Catch up on everything scheduled before the arrival, then let
        # the deterministic queue order the arrival against same-time
        # events exactly as an offline replay would.
        self.advance_to(spec.arrival_time)
        self.sim.submit(spec)
        self._tenant_of_job[spec.job_id] = submission.tenant

        decide_start = perf_counter()
        arrival_seen = False
        while not arrival_seen:
            event = self._timed_step()
            if event is None:
                raise RuntimeError(
                    f"kernel stalled before processing arrival of {spec.job_id!r} "
                    f"(max_events={self.config.max_events} exhausted?)"
                )
            arrival_seen = (
                event.kind is EventKind.JOB_ARRIVAL and event.job_id == spec.job_id
            )
        latency = perf_counter() - decide_start
        self._decision_wall_total += latency
        self.decision_latency.record(latency)
        state.decision_latency.record(latency)

        config = self.sim.allocation.config_of(spec.job_id)
        state.active_jobs.append(spec.job_id)
        state.outstanding_gpus += int(spec.requested_gpus)
        if config is not None:
            state.placed += 1
            status = "placed"
            gpu_ids: Tuple[int, ...] = config.gpu_ids
            local_batches: Tuple[int, ...] = config.local_batches
        else:
            state.queued += 1
            status = "queued"
            gpu_ids = ()
            local_batches = ()
        decision = PlacementDecision(
            submission_id=submission_id,
            job_id=spec.job_id,
            tenant=submission.tenant,
            status=status,
            virtual_time=float(self.sim.now),
            decision_latency_ms=latency * 1e3,
            gpu_ids=gpu_ids,
            local_batches=local_batches,
            queue_depth=self.queue_depth(),
        )
        self.streams.publish(submission.tenant, decision.to_dict())
        self._trace_decision(decision)
        return decision

    def _trace_decision(self, decision: PlacementDecision) -> None:
        """Record one admit/reject outcome when tracing is active."""
        tracer = active_tracer()
        if tracer is None:
            return
        tracer.event(
            "admit" if decision.status in ("placed", "queued") else "reject",
            "service",
            float(self.sim.now),
            tenant=decision.tenant,
            job=decision.job_id,
            status=decision.status,
            queue_depth=decision.queue_depth,
        )

    def _admit(self, submission: JobSubmission) -> TenantState:
        state = self.tenants.get(submission.tenant)
        if state is None:
            if not self._open_admission:
                raise AdmissionError(
                    f"unknown tenant {submission.tenant!r}; registered tenants: "
                    f"{sorted(self.tenants)}"
                )
            state = TenantState(quota=TenantQuota(tenant=submission.tenant))
            self.tenants[submission.tenant] = state
        quota = state.quota
        if len(state.active_jobs) + 1 > quota.max_active:
            raise AdmissionError(
                f"tenant {submission.tenant!r} already has {len(state.active_jobs)} "
                f"active jobs (max_active={quota.max_active})"
            )
        if state.outstanding_gpus + submission.gpu_demand > quota.max_gpus:
            raise AdmissionError(
                f"tenant {submission.tenant!r} quota oversubscribed: outstanding "
                f"{state.outstanding_gpus} + requested {submission.gpu_demand} GPUs "
                f"exceeds max_gpus={quota.max_gpus}"
            )
        return state

    def _build_spec(self, submission: JobSubmission, arrival_time: float) -> JobSpec:
        if submission.spec is not None:
            # Trusted replay path: the payload *is* the job spec (its own
            # arrival time included), so a recorded trace pushed through
            # the service reproduces the offline run bit-for-bit.
            return jobspec_from_dict(dict(submission.spec))
        if submission.workload:
            template = self._catalog_by_name[submission.workload]
        else:
            family = self._by_family[submission.job_type]
            template = family[int(self._rng.integers(0, len(family)))]
        job_id = f"svc-{self._submission_counter:06d}"
        return make_job_spec(
            template,
            job_id=job_id,
            arrival_time=arrival_time,
            requested_gpus=submission.gpu_demand,
            rng=self._rng if self.config.convergence_jitter else None,
        )

    # -- drain -----------------------------------------------------------------

    def drain(self) -> SimulationResult:
        """Close the submission stream and run the cluster to completion."""
        self.draining = True
        self.sim.close()
        while True:
            if self.sim._all_done():
                break
            if self._timed_step() is None:
                break
        return self.sim.build_result()

    # -- telemetry ----------------------------------------------------------------------

    def queue_depth(self) -> int:
        """Admitted, incomplete jobs currently holding no GPUs."""
        placed = self.sim.allocation.jobs()
        return sum(1 for job_id in self.sim.active if job_id not in placed)

    def submissions_per_second(self) -> float:
        """Accepted submissions per wall-clock second of *decision* time."""
        if self._decision_wall_total <= 0.0:
            return 0.0
        return self.decision_latency.count / self._decision_wall_total

    def status(self) -> Dict[str, object]:
        """Control-plane snapshot: clocks, counters, tenants, queue depth."""
        return {
            "scheduler": self.config.scheduler,
            "num_gpus": int(self.config.num_gpus),
            "mode": self.config.mode,
            "virtual_time": float(self.sim.now),
            "wall_uptime_s": perf_counter() - self._started_wall,
            "events_processed": int(self.sim.kernel.events_processed),
            "events_pending": len(self.sim.kernel.events),
            "submissions": int(self._submission_counter),
            "jobs_total": len(self.sim.jobs),
            "jobs_completed": len(self._completed_seen),
            "queue_depth": self.queue_depth(),
            "gpus_busy": self.sim.allocation.num_used_gpus(),
            "draining": bool(self.draining),
            "tenants": {
                name: state.as_dict() for name, state in sorted(self.tenants.items())
            },
        }

    def metrics(self) -> Dict[str, object]:
        """Observability snapshot: latency histograms, throughput, goodput."""
        scheduler_registry = getattr(self.sim.scheduler, "metrics_registry", None)
        scheduler_metrics: Dict[str, object] = (
            dict(scheduler_registry().values()) if scheduler_registry else {}
        )
        return {
            "scheduler": scheduler_metrics,
            "decision_latency": self.decision_latency.as_dict(),
            "decision_latency_by_tenant": {
                name: state.decision_latency.as_dict()
                for name, state in sorted(self.tenants.items())
            },
            "step_latency_by_kind": {
                kind: hist.as_dict()
                for kind, hist in sorted(self.step_latency.items())
            },
            "submissions_per_second": self.submissions_per_second(),
            "queue_depth": self.queue_depth(),
            "goodput_by_tenant": {
                name: {
                    "completed": int(state.completed),
                    "service_seconds": float(state.service_seconds),
                    "mean_jct": (
                        state.jct_seconds / state.completed if state.completed else 0.0
                    ),
                }
                for name, state in sorted(self.tenants.items())
            },
            "streams": self.streams.stats(),
        }

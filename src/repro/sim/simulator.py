"""The cluster simulator facade.

The simulator is a discrete-event loop over four event kinds:

* ``JOB_ARRIVAL`` — a job from the trace is submitted,
* ``EPOCH_END`` — a running job crosses an epoch boundary and uploads
  its progress to the scheduler,
* ``JOB_COMPLETION`` — handled inline when an epoch ends and the
  convergence criterion (10 consecutive epochs above the target
  accuracy) is met,
* ``TIMER`` — periodic rescheduling ticks for interval-based schedulers
  (Optimus reschedules every 10 minutes).

Between events, every running job advances continuously at the
throughput predicted by :class:`repro.jobs.throughput.ThroughputModel`
for its current configuration.  When the scheduler deploys a new
allocation, every job whose configuration changed is charged a
re-configuration overhead during which it holds its GPUs but makes no
progress — elastic (≈1 s) for ONES, checkpoint-based (≈10–22 s) for the
baselines, plus a uniform cold-start cost when a job is (re)started from
an idle state.

Since the kernel refactor, :class:`ClusterSimulator` is a *facade* over
three collaborating layers (see the package docstring of
:mod:`repro.sim` for the full map):

* :class:`~repro.sim.kernel.SimulationKernel` — clock, event heap,
  max-event/max-time guards, handler dispatch;
* :class:`~repro.sim.ledger.ProgressLedger` — vectorized rate/progress
  state of the running jobs (one packed slot each), advanced with array
  expressions and lazily materialized back into ``Job`` objects;
* :mod:`repro.sim.handlers` — per-event-kind strategy objects holding
  the domain logic, shared by ONES and every baseline.

The facade keeps the historical public surface (constructor signature,
``run()``, ``now`` / ``jobs`` / ``allocation``, the ``_apply_allocation``
and ``_handle_*`` entry points used by white-box tests) so schedulers
and experiments are unaffected by the layering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.allocation import Allocation
from repro.cluster.events import Event, EventKind
from repro.cluster.topology import ClusterTopology
from repro.faults.config import FaultConfig
from repro.faults.costs import FaultCostModel
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.runtime import FaultRuntime
from repro.jobs.job import Job, JobSpec
from repro.jobs.throughput import ThroughputModel
from repro.baselines.base import ClusterState, SchedulerBase
from repro.obs.trace import active_tracer, current_tracer
from repro.scaling.overhead import OverheadModel, ReconfigurationKind
from repro.sim.handlers import default_handlers
from repro.sim.kernel import SimulationKernel
from repro.sim.ledger import ProgressLedger
from repro.sim.profiling import SimProfile
from repro.utils.validation import check_non_negative, check_positive

#: FaultKind -> the EventKind its injection is scheduled under.
_FAULT_EVENT_KINDS = {
    FaultKind.NODE_DOWN: EventKind.NODE_DOWN,
    FaultKind.NODE_UP: EventKind.NODE_UP,
    FaultKind.GPU_DEGRADED: EventKind.GPU_DEGRADED,
}


@dataclass(frozen=True)
class SimulationConfig:
    """Tunable parameters of a simulation run.

    Parameters
    ----------
    max_time:
        Hard stop (seconds of simulated time); jobs not finished by then
        are reported as incomplete.
    start_overhead:
        Cold-start cost charged whenever a job goes from holding no GPUs
        to holding some (process launch, data pipeline warm-up).  The
        same for every scheduler so JCT differences come from decisions
        and re-configuration costs, not from an arbitrary constant.
    allreduce_efficiency:
        Passed through to the throughput model.
    min_progress_rate:
        Guard against pathological configurations: a running job must
        make at least this many samples/second or the simulator raises.
    collect_profile:
        Record per-phase wall-clock (ledger advance, per-event-kind
        handler time, scheduler-reported phases such as GPR refits) into
        ``SimulationResult.profile``.  Off by default: wall-clock is
        host-specific, so profiled artifacts are not reproducible across
        machines.
    faults:
        Optional :class:`~repro.faults.config.FaultConfig` describing the
        cluster weather the run is exposed to (node outages, stragglers,
        checkpoint/restart costs).  A disabled config (profile ``"none"``
        with no injections) is normalised to ``None`` so zero-fault
        configurations — and therefore experiment cell keys and
        trajectories — are exactly what they were before the fault
        subsystem existed.
    """

    max_time: float = 48 * 3600.0
    start_overhead: float = 5.0
    allreduce_efficiency: float = 0.7
    min_progress_rate: float = 1e-6
    max_events: int = 2_000_000
    collect_profile: bool = False
    faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        check_positive(self.max_time, "max_time")
        check_non_negative(self.start_overhead, "start_overhead")
        check_positive(self.allreduce_efficiency, "allreduce_efficiency")
        check_positive(self.min_progress_rate, "min_progress_rate")
        if self.max_events < 1000:
            raise ValueError("max_events must be >= 1000")
        if self.faults is not None and not self.faults.enabled:
            object.__setattr__(self, "faults", None)

    # -- serialization (used by declarative experiment specs) ---------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`).

        The ``faults`` key is present only when fault injection is
        enabled: zero-fault payloads (and the cell keys hashed from
        them) are byte-identical to the pre-fault schema.
        """
        payload: Dict[str, object] = {
            "max_time": float(self.max_time),
            "start_overhead": float(self.start_overhead),
            "allreduce_efficiency": float(self.allreduce_efficiency),
            "min_progress_rate": float(self.min_progress_rate),
            "max_events": int(self.max_events),
            "collect_profile": bool(self.collect_profile),
        }
        if self.faults is not None:
            payload["faults"] = self.faults.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationConfig":
        """Rebuild a :class:`SimulationConfig` from :meth:`to_dict` output."""
        faults = payload.get("faults")
        return cls(
            max_time=float(payload["max_time"]),
            start_overhead=float(payload["start_overhead"]),
            allreduce_efficiency=float(payload["allreduce_efficiency"]),
            min_progress_rate=float(payload["min_progress_rate"]),
            max_events=int(payload["max_events"]),
            collect_profile=bool(payload.get("collect_profile", False)),
            faults=FaultConfig.from_dict(faults) if faults is not None else None,
        )


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    scheduler_name: str
    num_gpus: int
    completed: Dict[str, Dict[str, float]]
    incomplete: List[str]
    makespan: float
    gpu_time_busy: float
    gpu_time_total: float
    num_reconfigurations: int
    events_processed: int
    jobs: Dict[str, Job] = field(default_factory=dict, repr=False)
    #: Flat profiling table, populated only when the run was configured
    #: with ``collect_profile=True``.  ``*_seconds`` keys are per-phase
    #: wall-clock; ``events_<kind>`` keys are per-event-kind counts
    #: (floats for JSON uniformity) — do not sum the dict as seconds.
    profile: Dict[str, float] = field(default_factory=dict, repr=False)
    #: Recovery metrics of a faulted run (evictions, restarts, lost
    #: GPU-seconds, downtime, goodput — see
    #: :meth:`repro.faults.runtime.FaultRuntime.metrics`).  Empty when
    #: the run had no fault configuration.
    faults: Dict[str, float] = field(default_factory=dict, repr=False)

    # -- metric views -------------------------------------------------------------------

    def jct_values(self) -> np.ndarray:
        """Per-job completion times, ordered by job id."""
        return self._metric("jct")

    def execution_values(self) -> np.ndarray:
        """Per-job execution times, ordered by job id."""
        return self._metric("execution_time")

    def queuing_values(self) -> np.ndarray:
        """Per-job queuing times, ordered by job id."""
        return self._metric("queuing_time")

    def _metric(self, key: str) -> np.ndarray:
        return np.asarray(
            [self.completed[j][key] for j in sorted(self.completed)], dtype=float
        )

    @property
    def average_jct(self) -> float:
        """Mean job completion time over completed jobs."""
        values = self.jct_values()
        return float(values.mean()) if values.size else float("nan")

    @property
    def average_execution_time(self) -> float:
        """Mean execution time over completed jobs."""
        values = self.execution_values()
        return float(values.mean()) if values.size else float("nan")

    @property
    def average_queuing_time(self) -> float:
        """Mean queuing time over completed jobs."""
        values = self.queuing_values()
        return float(values.mean()) if values.size else float("nan")

    @property
    def gpu_utilization(self) -> float:
        """Busy GPU-seconds divided by available GPU-seconds."""
        if self.gpu_time_total <= 0:
            return 0.0
        return self.gpu_time_busy / self.gpu_time_total

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation of the result.

        The live :class:`~repro.jobs.job.Job` objects are *not* included:
        they exist for in-process telemetry/debugging and are neither
        needed by the metric views above nor cheap to serialize.  The
        returned payload round-trips exactly through :meth:`from_dict`
        (floats survive JSON bit-for-bit), which is what lets experiment
        artifacts cross process boundaries and live on disk.
        """
        return {
            "scheduler_name": str(self.scheduler_name),
            "num_gpus": int(self.num_gpus),
            "completed": {
                job_id: {key: float(value) for key, value in metrics.items()}
                for job_id, metrics in self.completed.items()
            },
            "incomplete": [str(job_id) for job_id in self.incomplete],
            "makespan": float(self.makespan),
            "gpu_time_busy": float(self.gpu_time_busy),
            "gpu_time_total": float(self.gpu_time_total),
            "num_reconfigurations": int(self.num_reconfigurations),
            "events_processed": int(self.events_processed),
            "profile": {key: float(value) for key, value in self.profile.items()},
            "faults": {key: float(value) for key, value in self.faults.items()},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationResult":
        """Rebuild a (job-less) :class:`SimulationResult` from :meth:`to_dict` output."""
        return cls(
            scheduler_name=str(payload["scheduler_name"]),
            num_gpus=int(payload["num_gpus"]),
            completed={
                job_id: {key: float(value) for key, value in metrics.items()}
                for job_id, metrics in payload["completed"].items()
            },
            incomplete=[str(job_id) for job_id in payload["incomplete"]],
            makespan=float(payload["makespan"]),
            gpu_time_busy=float(payload["gpu_time_busy"]),
            gpu_time_total=float(payload["gpu_time_total"]),
            num_reconfigurations=int(payload["num_reconfigurations"]),
            events_processed=int(payload["events_processed"]),
            profile={
                key: float(value)
                for key, value in payload.get("profile", {}).items()
            },
            faults={
                key: float(value)
                for key, value in payload.get("faults", {}).items()
            },
        )

    def summary(self) -> Dict[str, object]:
        """Headline numbers used by reports.

        Values are heterogeneous by design: the scheduler name is a
        string, the job/reconfiguration counts are ints, everything else
        a float — see the keyed consumers in ``analysis.export`` and
        ``experiments.report``.
        """
        return {
            "scheduler": self.scheduler_name,
            "num_gpus": self.num_gpus,
            "completed_jobs": len(self.completed),
            "incomplete_jobs": len(self.incomplete),
            "average_jct": self.average_jct,
            "average_execution_time": self.average_execution_time,
            "average_queuing_time": self.average_queuing_time,
            "makespan": self.makespan,
            "gpu_utilization": self.gpu_utilization,
            "reconfigurations": self.num_reconfigurations,
        }


class ClusterSimulator:
    """Replays a trace against a scheduler on a simulated cluster."""

    def __init__(
        self,
        topology: ClusterTopology,
        scheduler: SchedulerBase,
        trace: Sequence[JobSpec],
        config: Optional[SimulationConfig] = None,
        overhead_model: Optional[OverheadModel] = None,
        online: bool = False,
    ) -> None:
        if not trace and not online:
            raise ValueError("trace must contain at least one job")
        job_ids = [spec.job_id for spec in trace]
        if len(set(job_ids)) != len(job_ids):
            raise ValueError("trace contains duplicate job ids")
        self.topology = topology
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        self.overheads = overhead_model or OverheadModel(node=topology.node_spec)
        self.throughput_model = ThroughputModel(
            topology, allreduce_efficiency=self.config.allreduce_efficiency
        )
        self.trace = sorted(trace, key=lambda s: (s.arrival_time, s.job_id))
        self._spec_index = {spec.job_id: spec for spec in self.trace}
        #: Online mode: the trace grows via :meth:`submit` while the
        #: kernel is live; :meth:`close` declares the stream finished.
        self.online = bool(online)
        self.closed = not self.online
        self._timer_armed = False
        # runtime state: every admitted job, and the admitted jobs not yet
        # completed (admission order) — what scheduler callbacks see.
        self.jobs: Dict[str, Job] = {}
        self.active: Dict[str, Job] = {}
        self.allocation: Allocation = Allocation.empty()
        # Every running job holds at least one GPU, so the ledger's slots
        # never outnumber the GPUs; an online run starts with no trace and
        # the ledger grows with its submissions.
        self.ledger = ProgressLedger(capacity=min(len(self.trace), topology.num_gpus))
        self.profile: Optional[SimProfile] = (
            SimProfile() if self.config.collect_profile else None
        )
        # fault state: the plan is derived deterministically from the
        # config + cluster + horizon (empty when faults are disabled),
        # the runtime tracks down/degraded nodes and recovery metrics.
        self.faults = FaultRuntime(topology)
        if self.config.faults is not None:
            self.fault_costs = FaultCostModel(
                restart_delay_multiplier=self.config.faults.restart_delay_multiplier,
                lost_work_fraction=self.config.faults.lost_work_fraction,
            )
            self.fault_plan = self.config.faults.build_plan(
                topology.num_nodes, self.config.max_time
            )
        else:
            self.fault_costs = FaultCostModel()
            self.fault_plan = FaultPlan()
        self.handlers = default_handlers(self)
        self.kernel = SimulationKernel(
            max_time=self.config.max_time,
            max_events=self.config.max_events,
            advance_hook=self._on_advance,
            done=self._all_done,
            handlers=self.handlers,
            profile=self.profile,
            # The process-wide recorder (None when tracing is dormant).
            # Captured once here: the kernel guards on it per event, and
            # recording never touches RNG or event ordering, so results
            # are bit-identical with tracing on or off.
            tracer=current_tracer(),
        )
        self._num_reconfigs = 0
        self._busy_gpu_time = 0.0

    # -- kernel views -------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time (the kernel's clock)."""
        return self.kernel.now

    # -- public API ---------------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the simulation to completion (or the configured time limit)."""
        for spec in self.trace:
            self.kernel.push(
                Event(time=spec.arrival_time, kind=EventKind.JOB_ARRIVAL, job_id=spec.job_id)
            )
        if self.scheduler.timer_interval is not None:
            first = self.trace[0].arrival_time + self.scheduler.timer_interval
            self.kernel.push(Event(time=first, kind=EventKind.TIMER))
            self._timer_armed = True
        for injection in self.fault_plan:
            self.kernel.push(
                Event(
                    time=injection.time,
                    kind=_FAULT_EVENT_KINDS[injection.kind],
                    payload=injection,
                )
            )
        self.kernel.run()
        return self._build_result()

    # -- online mode (live submissions against a running kernel) ------------------------

    def start(self) -> None:
        """Seed the pre-known events of an online run (fault plan only).

        The online twin of the :meth:`run` preamble: arrivals come in via
        :meth:`submit` and the periodic timer is armed on the first
        submission (so its first tick is ``first_arrival + interval``,
        exactly as in an offline replay).  The caller then drives
        ``self.kernel`` with ``step()``.
        """
        if not self.online:
            raise RuntimeError("start() is only meaningful in online mode; use run()")
        for injection in self.fault_plan:
            self.kernel.push(
                Event(
                    time=injection.time,
                    kind=_FAULT_EVENT_KINDS[injection.kind],
                    payload=injection,
                )
            )

    def submit(self, spec: JobSpec) -> None:
        """Append a job to a live online run and schedule its arrival.

        The submission contract: job ids are unique, and the arrival time
        must not lie in the past of the kernel clock (enforced again by
        :meth:`~repro.sim.kernel.SimulationKernel.inject`).  Submissions
        keep the trace sorted, so online arrival order — and therefore
        the deterministic event order — matches an offline replay of the
        same jobs.
        """
        if not self.online:
            raise RuntimeError("submit() requires online mode")
        if self.closed:
            raise RuntimeError("cannot submit to a closed simulator")
        if spec.job_id in self._spec_index:
            raise ValueError(f"job id {spec.job_id!r} was already submitted")
        if self.trace and spec.arrival_time < self.trace[-1].arrival_time - 1e-9:
            raise ValueError(
                f"submission at t={spec.arrival_time} arrives before the previous "
                f"submission at t={self.trace[-1].arrival_time} (arrivals must be "
                f"monotone in online mode)"
            )
        self.trace.append(spec)
        self._spec_index[spec.job_id] = spec
        if self.scheduler.timer_interval is not None and not self._timer_armed:
            self.kernel.inject(
                Event(
                    time=spec.arrival_time + self.scheduler.timer_interval,
                    kind=EventKind.TIMER,
                )
            )
            self._timer_armed = True
        self.kernel.inject(
            Event(time=spec.arrival_time, kind=EventKind.JOB_ARRIVAL, job_id=spec.job_id)
        )

    def close(self) -> None:
        """Declare the online submission stream finished.

        Until closed, ``_all_done`` never holds: the run is open-ended,
        so self-re-arming timers keep ticking and the kernel keeps
        accepting work — matching an offline run whose trace still has
        unarrived jobs.  After closing, the run drains exactly like an
        offline one.
        """
        self.closed = True

    def build_result(self) -> SimulationResult:
        """Assemble the result of an online run (callable at any point)."""
        return self._build_result()

    # -- state snapshots ------------------------------------------------------------------------

    def _state(self) -> ClusterState:
        # The snapshot writes the ledger's progress back into the Job
        # objects the first time the callback asks for a job view.
        return ClusterState(
            now=self.now,
            topology=self.topology,
            throughput_model=self.throughput_model,
            allocation=self.allocation,
            jobs=self.active,
            unavailable_gpus=self.faults.unavailable_gpus(),
            writeback=self.ledger.materialize_all,
        )

    def _all_done(self) -> bool:
        if not self.closed:
            # An open online run can always receive more submissions, so
            # it is never "done" — exactly like an offline run whose
            # trace still holds unarrived jobs.
            return False
        return len(self.jobs) == len(self.trace) and not self.active

    # -- time advancement --------------------------------------------------------------------------

    def _on_advance(self, to_time: float) -> None:
        """Kernel advance hook: GPU busy-time accounting + ledger progress."""
        busy_gpus = len(self.allocation.used_gpus())
        self._busy_gpu_time += busy_gpus * (to_time - self.kernel.now)
        if self.faults.down_nodes:
            self.faults.charge_downtime(to_time - self.kernel.now)
        self.ledger.advance_to(to_time)

    # -- hooks the event handlers call ----------------------------------------------------------

    def admit_job(self, job_id: str) -> Job:
        """Create the :class:`Job` for an arriving spec and index it."""
        spec = self._spec_index[job_id]
        job = Job(spec)
        self.jobs[spec.job_id] = job
        self.active[spec.job_id] = job
        return job

    def _complete_job(self, job: Job) -> None:
        job.mark_completed(self.now)
        del self.active[job.job_id]
        self.ledger.pull(job)
        # Remove the job's workers from the deployed allocation; the
        # surviving workers are immutable and carried over as they are.
        self.allocation = Allocation(
            {
                gpu: worker
                for gpu, worker in self.allocation.workers().items()
                if worker.job_id != job.job_id
            }
        )
        proposal = self.scheduler.on_job_completion(job, self._state())
        if proposal is not None:
            self._apply_allocation(proposal)

    # -- allocation application -----------------------------------------------------------------------

    def _apply_allocation(self, proposal: Allocation) -> None:
        self._validate_proposal(proposal)
        changed = self.allocation.changed_jobs(proposal)
        if not changed:
            return
        # The callback may have returned without reading a job; the jobs
        # re-configured below are read and mutated, so bring them up to date.
        self.ledger.materialize_all()
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "apply_allocation", "sim", self.now, changed_jobs=len(changed)
            )
        for job_id in sorted(changed):
            job = self.jobs[job_id]
            new_config = proposal.config_of(job_id)
            if new_config is None:
                # Preemption: release the job's GPUs.
                if job.is_running:
                    job.stop_running(self.now)
                self.ledger.pull(job)
                continue
            was_running = job.is_running
            old_workers = job.num_gpus
            job.start_running(
                self.now,
                gpu_ids=new_config.gpu_ids,
                local_batches=new_config.local_batches,
                lr_scaled=self.scheduler.lr_is_scaled(),
            )
            overhead = self._reconfiguration_overhead(
                job, was_running, old_workers, new_config.num_gpus
            )
            if not was_running:
                # A fault-evicted job restores its checkpoint on top of
                # the normal cold-start cost (0.0 when nothing is owed).
                overhead += self.faults.consume_restart(job_id)
            job.record_reconfiguration(overhead)
            self._num_reconfigs += 1
            self.ledger.pull(job)
            self.ledger.set_resume(job_id, self.now + overhead, self.now)
            rate = self.throughput_model.throughput(
                job.spec.model, list(new_config.local_batches), list(new_config.gpu_ids)
            )
            if self.faults.degraded:
                rate *= self.faults.placement_factor(new_config.gpu_ids)
            if rate < self.config.min_progress_rate:
                raise RuntimeError(
                    f"configuration of job {job_id} yields throughput {rate:.3g} "
                    f"samples/s which is below the progress guard"
                )
            self.ledger.set_rate(job_id, rate)
        self.allocation = proposal
        # Re-schedule epoch boundaries for every re-configured running job.
        for job_id in sorted(changed):
            job = self.jobs[job_id]
            if job.is_running:
                self._schedule_epoch_end(job)

    def _validate_proposal(self, proposal: Allocation) -> None:
        named = proposal.jobs()
        proposal.validate(
            self.topology.num_gpus,
            max_local_batch={
                job_id: self.jobs[job_id].spec.max_local_batch
                for job_id in named
                if job_id in self.jobs
            },
        )
        unavailable = self.faults.unavailable_gpus()
        if unavailable:
            dead = sorted(set(proposal.used_gpus()) & unavailable)
            if dead:
                raise ValueError(
                    f"allocation places workers on unavailable GPUs {dead} "
                    f"(nodes down: {sorted(self.faults.down_nodes)})"
                )
        for job_id in named:
            job = self.jobs.get(job_id)
            if job is None:
                raise ValueError(f"allocation references unknown job {job_id!r}")
            if job.is_completed:
                raise ValueError(f"allocation references completed job {job_id!r}")
            if job.arrival_time > self.now + 1e-9:
                raise ValueError(
                    f"allocation references job {job_id!r} before its arrival"
                )

    def _reconfiguration_overhead(
        self, job: Job, was_running: bool, old_workers: int, new_workers: int
    ) -> float:
        if not was_running:
            return self.config.start_overhead
        kind = self.scheduler.reconfiguration_kind
        return self.overheads.reconfiguration_overhead(
            job.spec.model,
            kind,
            num_workers=max(new_workers, 1),
            workers_added=new_workers > old_workers,
        )

    # -- epoch-boundary scheduling ----------------------------------------------------------------------

    def _schedule_epoch_end(self, job: Job) -> None:
        rate = self.ledger.rate_of(job.job_id)
        if rate <= 0:
            return
        into_epoch = job.samples_processed % job.dataset_size
        remaining = job.dataset_size - into_epoch
        if remaining <= 0.5:
            remaining = job.dataset_size
        resume_at = max(self.now, self.ledger.resume_of(job.job_id))
        eta = resume_at + remaining / rate
        self.kernel.push(
            Event(
                time=eta,
                kind=EventKind.EPOCH_END,
                job_id=job.job_id,
                generation=job.generation,
            )
        )

    # -- result assembly -------------------------------------------------------------------------------------

    def _build_result(self) -> SimulationResult:
        self.ledger.materialize_all()
        completed = {
            job_id: job.completion_metrics()
            for job_id, job in self.jobs.items()
            if job.is_completed
        }
        incomplete = [
            spec.job_id
            for spec in self.trace
            if spec.job_id not in completed
        ]
        makespan = self.now - self.trace[0].arrival_time if self.jobs else 0.0
        gpu_time_total = self.topology.num_gpus * max(makespan, 1e-9)
        fault_metrics: Dict[str, float] = {}
        if self.config.faults is not None:
            fault_metrics = self.faults.metrics(
                gpu_time_busy=self._busy_gpu_time, gpu_time_total=gpu_time_total
            )
        profile: Dict[str, float] = {}
        if self.profile is not None:
            reporter = getattr(self.scheduler, "profile_phases", None)
            if callable(reporter):
                for phase, seconds in reporter().items():
                    self.profile.record(str(phase), float(seconds))
            profile = self.profile.as_dict()
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            num_gpus=self.topology.num_gpus,
            completed=completed,
            incomplete=incomplete,
            makespan=makespan,
            gpu_time_busy=self._busy_gpu_time,
            gpu_time_total=gpu_time_total,
            num_reconfigurations=self._num_reconfigs,
            events_processed=self.kernel.events_processed,
            jobs=dict(self.jobs),
            profile=profile,
            faults=fault_metrics,
        )

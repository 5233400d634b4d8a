"""The benchmark's workloads: inputs from a seed, then build, then drive.

Each workload runs in three phases that the benchmark times apart:

* ``generate(seed, scale)`` makes the inputs (not timed);
* ``build(inputs)`` constructs the topology, scheduler and simulator or
  service from them (timed, part of ``setup_s``);
* ``drive(built, decisions, clock)`` runs to the end (``wall_s``) and
  returns an :class:`Outcome`; ``decisions`` receives the time in seconds
  of every scheduling decision.  Both are read from ``clock``, which
  leaves out the time the benchmark's speed probe takes (see ``rep.py``).

The program only ever sees the generated job specs and submissions.  The
service load comes from the repository's own
``repro.service.load.generate_submissions``, called once per tenant and
merged in arrival order.  The replays use the trace model of
``repro.workload.trace.TraceGenerator`` (Poisson arrivals, uniform Table-2
templates, GPU demand drawn independently of the template with the
``TraceConfig`` weights) with two of its draws stratified; see
:func:`stratified_trace`.

This module imports nothing from ``repro`` at load time, so the benchmark
can time each workload's own imports in a fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

#: Thread pools every benchmark process pins to one thread before numpy
#: loads.  Unpinned OpenBLAS threads made the GPR-heavy ONES replay 2.3-3.4x
#: slower on two CPUs.
PINNED_THREADS: Tuple[str, ...] = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Outcome:
    """What one drive of a workload produced."""

    wall_s: float
    result: object  # repro.sim.simulator.SimulationResult
    jobs_sent: int
    #: Service only: submissions that came back placed / queued / refused.
    placed: int = 0
    queued: int = 0
    refused: int = 0
    #: Scheduler counters from its public metrics registry (ONES only).
    counters: Dict[str, float] = field(default_factory=dict)
    stream_dropped: int = 0


@dataclass(frozen=True)
class Workload:
    """One named workload of the benchmark."""

    name: str
    loop: str
    why: str
    #: Modules the workload calls: the set-up time includes their import.
    modules: Tuple[str, ...]
    generate: Callable[[int, float], object]
    build: Callable[[object], object]
    drive: Callable[[object, List[float], Callable[[], float]], Outcome]
    checks: Callable[[object, Outcome], List[str]]


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread; call before numpy loads."""
    for var in PINNED_THREADS:
        os.environ[var] = "1"


# -- input generation ------------------------------------------------------------------


def _scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


def inputs_digest(payload: object) -> str:
    """sha256 of a workload's inputs, to show two seeds differ."""
    from repro.workload.replay import jobspec_to_dict

    if isinstance(payload, ReplayInputs):
        rows = [jobspec_to_dict(spec) for spec in payload.trace]
        rows.append({"faults": payload.faults.to_dict() if payload.faults else None})
    else:
        rows = [submission.to_dict() for submission in payload.submissions]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# -- offline replays -------------------------------------------------------------------


@dataclass
class ReplayInputs:
    seed: int
    num_gpus: int
    scheduler: str
    options: Dict[str, object]
    trace: list
    faults: object = None  # repro.faults.config.FaultConfig or None


def stratified_trace(seed: int, num_jobs: int, rate: float) -> list:
    """A ``TraceGenerator`` trace whose job mix does not vary with the seed.

    Arrivals are the same Poisson stream (first job at t = 0) and every job
    gets the same convergence jitter, but the templates cycle through the
    whole catalogue in random order, so each is used equally often, and the
    GPU demands come in the exact ``TraceConfig`` proportions, shuffled
    independently of the templates.  Drawn independently, the average JCT
    of ten 100-job traces spread by 25% (flat ONES) and 32% (ONES-hier)
    between quartiles; stratified, by 13-15%.
    """
    import numpy as np
    from repro.workload.arrivals import PoissonArrivals
    from repro.workload.tasks import build_workload_catalog, make_job_spec
    from repro.workload.trace import TraceConfig

    config = TraceConfig(num_jobs=num_jobs, arrival_rate=rate)
    rng = np.random.default_rng(seed)
    catalog = build_workload_catalog()
    times = PoissonArrivals(rate).generate(num_jobs, rng)
    cycles = -(-num_jobs // len(catalog))
    templates = np.concatenate([rng.permutation(len(catalog)) for _ in range(cycles)])
    counts = np.floor(config.normalized_weights * num_jobs + 0.5).astype(int)
    counts[0] += num_jobs - counts.sum()
    demands = rng.permutation(np.repeat(config.gpu_request_choices, counts))
    return [
        make_job_spec(
            catalog[int(templates[index])],
            job_id=f"job-{index:03d}",
            arrival_time=float(times[index]),
            requested_gpus=int(demands[index]),
            rng=rng,
            convergence_patience=config.convergence_patience,
        )
        for index in range(num_jobs)
    ]


def _replay_generator(num_gpus, scheduler, options, jobs, rate, faults=None):
    def generate(seed: int, scale: float) -> ReplayInputs:
        from repro.faults.config import FaultConfig

        trace = stratified_trace(seed, _scaled(jobs, scale), rate)
        plan = None
        if faults is not None:
            plan = FaultConfig(profile="mtbf", seed=int(seed), **faults)
        return ReplayInputs(seed, num_gpus, scheduler, dict(options), trace, plan)

    return generate


def _build_replay(inputs: ReplayInputs):
    from repro.cluster.topology import make_longhorn_cluster
    from repro.experiments.registry import create_scheduler
    from repro.sim.simulator import ClusterSimulator, SimulationConfig

    topology = make_longhorn_cluster(inputs.num_gpus)
    scheduler = create_scheduler(inputs.scheduler, inputs.seed, **inputs.options)
    config = SimulationConfig(faults=inputs.faults)
    return ClusterSimulator(topology, scheduler, inputs.trace, config)


def _time_decisions(scheduler, sink: List[float], clock: Callable[[], float]) -> None:
    """Time every callback of ``scheduler`` itself (not of inner schedulers)."""
    for name in ("on_job_arrival", "on_epoch_end", "on_job_completion", "on_fault"):
        method = getattr(scheduler, name)

        def timed(*args, _method=method, **kwargs):
            start = clock()
            try:
                return _method(*args, **kwargs)
            finally:
                sink.append(clock() - start)

        setattr(scheduler, name, timed)


def _scheduler_counters(scheduler) -> Dict[str, float]:
    registry = getattr(scheduler, "metrics_registry", None)
    return dict(registry().values()) if registry is not None else {}


def _drive_replay(sim, decisions: List[float], clock: Callable[[], float]) -> Outcome:
    _time_decisions(sim.scheduler, decisions, clock)
    start = clock()
    result = sim.run()
    wall = clock() - start
    return Outcome(
        wall_s=wall,
        result=result,
        jobs_sent=len(sim.trace),
        counters=_scheduler_counters(sim.scheduler),
    )


def _replay_checks(sim, outcome: Outcome) -> List[str]:
    result = outcome.result
    failed = _busy_check(result)
    finished = len(result.completed) + len(result.incomplete)
    if finished != outcome.jobs_sent:
        failed.append(
            f"completed {len(result.completed)} + incomplete {len(result.incomplete)} "
            f"!= trace length {outcome.jobs_sent}"
        )
    return failed


def _busy_check(result) -> List[str]:
    capacity = result.num_gpus * result.makespan
    if result.gpu_time_busy > capacity * (1.0 + 1e-9) + 1e-6:
        return [f"busy GPU-seconds {result.gpu_time_busy} > num_gpus x makespan {capacity}"]
    return []


# -- the scheduler service -------------------------------------------------------------


@dataclass
class ServiceInputs:
    seed: int
    num_gpus: int
    scheduler: str
    bursty_max_active: int
    submissions: list


def _service_generator(num_gpus, scheduler, per_tenant, tenants, bursty_max_active):
    def generate(seed: int, scale: float) -> ServiceInputs:
        from repro.service.load import generate_submissions
        from repro.workload.arrivals import ArrivalConfig

        submissions = []
        for tenant, profile, rate in tenants:
            arrivals = ArrivalConfig(profile=profile, rate=rate, seed=int(seed))
            submissions += generate_submissions(
                [tenant], _scaled(per_tenant, scale), arrivals=arrivals
            )
        # The order generate_submissions gives one list of several tenants.
        submissions.sort(key=lambda s: (s.arrival_time, s.tenant, s.name))
        return ServiceInputs(seed, num_gpus, scheduler, bursty_max_active, submissions)

    return generate


def _build_service(inputs: ServiceInputs):
    from repro.service.engine import SchedulerService
    from repro.service.schemas import ServiceConfig, TenantQuota

    config = ServiceConfig(
        num_gpus=inputs.num_gpus,
        scheduler=inputs.scheduler,
        seed=inputs.seed,
        mode="virtual",
        tenants=(
            TenantQuota(tenant="steady"),
            TenantQuota(tenant="bursty", max_active=inputs.bursty_max_active),
        ),
    )
    return SchedulerService(config), inputs.submissions


def _drive_service(built, decisions: List[float], clock: Callable[[], float]) -> Outcome:
    service, submissions = built
    statuses = {"placed": 0, "queued": 0, "rejected": 0}
    start = clock()
    for submission in submissions:
        # Closed loop, one client: the clock moves to the next arrival
        # between requests, as the wall-mode server's clock tick does.
        service.advance_to(submission.arrival_time)
        begin = clock()
        decision = service.submit(submission)
        decisions.append(clock() - begin)
        statuses[decision.status] += 1
    result = service.drain()
    wall = clock() - start
    dropped = sum(row["dropped"] for row in service.streams.stats().values())
    return Outcome(
        wall_s=wall,
        result=result,
        jobs_sent=len(submissions),
        placed=statuses["placed"],
        queued=statuses["queued"],
        refused=statuses["rejected"],
        counters=_scheduler_counters(service.scheduler),
        stream_dropped=dropped,
    )


def _service_checks(built, outcome: Outcome) -> List[str]:
    service, _ = built
    result = outcome.result
    failed = _busy_check(result)
    tenants = service.tenants.values()
    placed = sum(t.placed for t in tenants)
    queued = sum(t.queued for t in tenants)
    refused = sum(t.rejected for t in tenants)
    if (placed, queued, refused) != (outcome.placed, outcome.queued, outcome.refused):
        failed.append(
            f"tenant accounting placed/queued/refused {placed}/{queued}/{refused} differs "
            f"from the decisions returned {outcome.placed}/{outcome.queued}/{outcome.refused}"
        )
    if placed + queued + refused != outcome.jobs_sent:
        failed.append(
            f"placed {placed} + queued {queued} + refused {refused} "
            f"!= submissions sent {outcome.jobs_sent}"
        )
    finished = len(result.completed) + len(result.incomplete)
    if finished != placed + queued:
        failed.append(
            f"completed {len(result.completed)} + incomplete {len(result.incomplete)} "
            f"!= placed {placed} + queued {queued}"
        )
    return failed


# -- the registry ----------------------------------------------------------------------

_REPLAY_MODULES = (
    "repro.cluster.topology",
    "repro.experiments.registry",
    "repro.faults.config",
    "repro.sim.simulator",
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="ones-paper-64",
            loop="offline replay",
            why=(
                "the paper's 64-GPU Longhorn setting under flat ONES with the "
                "paper-exact GPR refit at every completion; evolution and "
                "refits do nearly all the work"
            ),
            modules=_REPLAY_MODULES,
            generate=_replay_generator(64, "ONES", {}, jobs=100, rate=1.0 / 30.0),
            build=_build_replay,
            drive=_drive_replay,
            checks=_replay_checks,
        ),
        Workload(
            name="hier-faults-256",
            loop="offline replay",
            why=(
                "ONES-hier over four 64-GPU shards under seeded node failures; "
                "the reconciler, partition views and scoring-cache rebuilds run "
                "on every callback"
            ),
            modules=_REPLAY_MODULES,
            generate=_replay_generator(
                256,
                "ONES-hier",
                {"partition_size": 64, "parallel_workers": 0},
                jobs=100,
                rate=1.0 / 10.0,
                # Two-minute repairs: an outage still evicts jobs and swaps
                # views, but no longer decides the makespan on its own.
                faults={"mtbf_hours": 2.0, "repair_minutes": 2.0},
            ),
            build=_build_replay,
            drive=_drive_replay,
            checks=_replay_checks,
        ),
        Workload(
            name="service-fifo-64",
            loop="closed loop, one client",
            why=(
                "SchedulerService running FIFO for two tenants, one Poisson and "
                "one bursty with a quota; no evolution or GPR, so the service "
                "front end and the online simulator step dominate"
            ),
            modules=(
                "repro.service.engine",
                "repro.service.schemas",
            ),
            generate=_service_generator(
                64,
                "FIFO",
                per_tenant=500,
                # One job per 60 s from each tenant, the paper's rate in all:
                # the bursty profile's mean rate is 2.5x its quiet rate
                # (10x bursts of 120 s between 600-s quiet phases).
                tenants=(
                    ("steady", "poisson", 1.0 / 60.0),
                    ("bursty", "bursty", 1.0 / 150.0),
                ),
                bursty_max_active=12,
            ),
            build=_build_service,
            drive=_drive_service,
            checks=_service_checks,
        ),
    )
}


def trajectory_hash(result) -> str:
    """sha256 over the per-job completion metrics, the makespan and the event count."""
    digest = hashlib.sha256()
    for job_id in sorted(result.completed):
        metrics = result.completed[job_id]
        row = ",".join(f"{key}={metrics[key]!r}" for key in sorted(metrics))
        digest.update(f"{job_id}:{row};".encode())
    digest.update(f"makespan={result.makespan!r};events={result.events_processed}".encode())
    return digest.hexdigest()

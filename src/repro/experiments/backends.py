"""Pluggable execution backends for experiment grids.

A backend turns a list of :class:`~repro.experiments.spec.RunSpec` cells
into :class:`~repro.experiments.artifacts.RunArtifact`\\ s, preserving
input order.  Two backends ship with the repo:

* :class:`SerialBackend` — executes cells one after another in-process.
* :class:`ProcessPoolBackend` — fans cells out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Because a cell is a
  pure function of its spec (the scheduler is constructed fresh from the
  registry, the trace is generated from the spec's own seed inside the
  worker, and nothing is shared between cells), the pool produces
  artifacts *bit-identical* to serial execution — only faster.  Specs and
  artifacts cross the process boundary as plain dicts, so nothing
  unpicklable (scheduler instances, lambdas, RNG state) ever has to.

The free functions are the single execution path everything funnels
through: every backend calls :func:`execute_run`, which ends in
:func:`simulate_trace`, and code that replays one explicit trace under
one scheduler instance calls :func:`simulate_trace` itself.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import subprocess
import sys
import time
import uuid
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.baselines.base import SchedulerBase
from repro.cluster.topology import make_longhorn_cluster
from repro.experiments.artifacts import RunArtifact
from repro.experiments.registry import create_scheduler
from repro.experiments.spec import RunSpec
from repro.jobs.job import JobSpec
from repro.sim.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from repro.workload.trace import TraceGenerator

#: Resolver signature: ``(name, seed, **options) -> SchedulerBase``.
SchedulerResolver = Callable[..., SchedulerBase]


def simulate_trace(
    scheduler: SchedulerBase,
    trace: Sequence[JobSpec],
    num_gpus: int,
    simulation: Optional[SimulationConfig] = None,
) -> SimulationResult:
    """Replay an explicit ``trace`` under an instantiated ``scheduler``.

    The lowest-level entry point: builds the Longhorn-style topology and
    runs the discrete-event simulator.  Use :func:`simulate_run` when the
    run is described by a declarative :class:`RunSpec` instead.
    """
    topology = make_longhorn_cluster(num_gpus)
    simulator = ClusterSimulator(
        topology=topology,
        scheduler=scheduler,
        trace=list(trace),
        config=simulation,
    )
    return simulator.run()


def simulate_run(
    spec: RunSpec, resolver: Optional[SchedulerResolver] = None
) -> SimulationResult:
    """Execute one declarative cell and return the full in-process result.

    The returned :class:`SimulationResult` still carries its live ``Job``
    objects (unlike the serializable artifact), which examples use for
    per-job timelines.  ``resolver`` overrides how scheduler names are
    turned into instances; it defaults to the registry.
    """
    resolve = resolver or create_scheduler
    scheduler = resolve(spec.scheduler, spec.seed, **spec.scheduler_options)
    trace = TraceGenerator(spec.trace, seed=spec.seed).generate()
    return simulate_trace(scheduler, trace, spec.num_gpus, spec.simulation)


def execute_run(
    spec: RunSpec, resolver: Optional[SchedulerResolver] = None
) -> RunArtifact:
    """Execute one declarative cell and package it as a serializable artifact.

    When tracing is active the whole cell runs inside a ``cell`` span
    labelled with the spec, so multi-cell traces (``compare`` on the
    serial backend, queue workers) stay separable per cell.
    """
    from repro.obs.trace import active_tracer

    tracer = active_tracer()
    if tracer is None:
        return RunArtifact.from_simulation(spec, simulate_run(spec, resolver))
    with tracer.span("cell", "experiment", 0.0, label=spec.label()) as span:
        artifact = RunArtifact.from_simulation(spec, simulate_run(spec, resolver))
        span["end_t"] = float(artifact.result.makespan)
    return artifact


#: Progress callback: ``(index_into_specs, artifact)``; called as each cell
#: completes (not necessarily in order on parallel backends).
ResultCallback = Callable[[int, RunArtifact], None]


class CellTimeoutError(RuntimeError):
    """One cell exceeded its per-cell wall-clock budget (all retries spent)."""


@dataclass(frozen=True)
class ExecutionPolicy:
    """Per-cell execution guard-rails applied by the backends.

    ``timeout_s`` bounds one *attempt's* wall-clock: the cell runs in a
    watchdogged child process that is terminated on overrun (so a
    pathological cell cannot wedge a sweep).  ``max_retries`` re-runs a
    cell after a timeout or an execution error, up to that many extra
    attempts; determinism makes retries of a *logic* error futile, but a
    loaded host can make an honest cell blow a tight timeout once.
    ``retry_backoff_s`` spaces those retries out exponentially (base
    delay, doubled per extra attempt), which matters on a loaded host —
    an immediate re-run hits the same contention that caused the first
    timeout.  The same policy object drives the queue backend, where the
    backoff is recorded in the durable work log as the cell's
    ``not_before`` gate.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 0
    retry_backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and float(self.timeout_s) <= 0:
            raise ValueError("timeout_s must be positive (or None to disable)")
        if int(self.max_retries) < 0:
            raise ValueError("max_retries must be >= 0")
        if float(self.retry_backoff_s) < 0:
            raise ValueError("retry_backoff_s must be >= 0")

    @property
    def is_default(self) -> bool:
        """Whether the policy changes nothing (no timeout, no retries)."""
        return self.timeout_s is None and self.max_retries == 0

    def backoff_delay(self, retry_index: int) -> float:
        """Seconds to wait before retry ``retry_index`` (0-based, exponential)."""
        if self.retry_backoff_s <= 0:
            return 0.0
        return float(self.retry_backoff_s) * (2.0 ** int(retry_index))

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (shared via the queue's ``queue.json``)."""
        return {
            "timeout_s": None if self.timeout_s is None else float(self.timeout_s),
            "max_retries": int(self.max_retries),
            "retry_backoff_s": float(self.retry_backoff_s),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ExecutionPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        timeout = payload.get("timeout_s")
        return cls(
            timeout_s=None if timeout is None else float(timeout),
            max_retries=int(payload.get("max_retries", 0)),
            retry_backoff_s=float(payload.get("retry_backoff_s", 0.0)),
        )


def _subprocess_cell_main(payload: Dict[str, object], conn) -> None:
    """Child entry point of a watchdogged cell: artifact (or error) out."""
    try:
        conn.send(("ok", _execute_payload(payload)))
    except BaseException as exc:  # noqa: BLE001 - marshalled to the parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def execute_run_in_subprocess(spec: RunSpec, timeout_s: float) -> RunArtifact:
    """Execute one cell in a child process with a hard wall-clock bound.

    The child is terminated on overrun — this is the only portable way
    to *stop* a running simulation, which is why timeouts imply
    subprocess execution (and registry-named schedulers; resolvers
    cannot cross the process boundary).  Artifacts come back as plain
    dicts, exactly like the process-pool backend's, so they are
    bit-identical to in-process execution.
    """
    ctx = multiprocessing.get_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    process = ctx.Process(
        target=_subprocess_cell_main, args=(spec.to_dict(), child_conn)
    )
    process.start()
    child_conn.close()
    try:
        if not parent_conn.poll(timeout_s):
            raise CellTimeoutError(
                f"cell {spec.label()} exceeded its {timeout_s:.1f}s budget"
            )
        status, payload = parent_conn.recv()
    finally:
        if process.is_alive():
            process.terminate()
        process.join()
        parent_conn.close()
    if status != "ok":
        raise RuntimeError(f"cell {spec.label()} failed in its worker: {payload}")
    return RunArtifact.from_dict(payload)


class AttemptCounter:
    """Mutable attempt bookkeeping updated *live* by the policy executor.

    Counts survive a final failure (the counter is written before the
    exception propagates), which is what lets ``RunnerStats`` report
    honest timed-out counts even when a sweep aborts.
    """

    __slots__ = ("retries", "timeouts")

    def __init__(self) -> None:
        self.retries = 0
        self.timeouts = 0


def execute_run_with_policy(
    spec: RunSpec,
    policy: Optional[ExecutionPolicy],
    resolver: Optional[SchedulerResolver] = None,
    counter: Optional[AttemptCounter] = None,
) -> RunArtifact:
    """Execute one cell under a policy, recording attempts on ``counter``.

    ``counter.retries`` counts extra attempts that were needed,
    ``counter.timeouts`` the attempts that hit the wall-clock bound (a
    retried timeout increments both).  Between attempts the policy's
    exponential backoff is honoured (``backoff_delay(0)`` before the
    first retry, doubling after).  The last attempt's failure propagates
    unchanged once the retry budget is spent — with the counter already
    updated.
    """
    counter = counter if counter is not None else AttemptCounter()
    if policy is None or policy.is_default:
        return execute_run(spec, resolver)
    if policy.timeout_s is not None and resolver is not None:
        raise ValueError(
            "per-cell timeouts run cells in subprocesses, which resolve "
            "schedulers via the registry only"
        )
    attempts = int(policy.max_retries) + 1
    for attempt in range(attempts):
        try:
            if policy.timeout_s is not None:
                return execute_run_in_subprocess(spec, policy.timeout_s)
            return execute_run(spec, resolver)
        except CellTimeoutError:
            counter.timeouts += 1
            if attempt + 1 >= attempts:
                raise
            counter.retries += 1
        except Exception:
            if attempt + 1 >= attempts:
                raise
            counter.retries += 1
        delay = policy.backoff_delay(attempt)
        if delay > 0:
            time.sleep(delay)
    raise AssertionError("unreachable: the attempt loop returns or raises")


class ExecutionBackend(abc.ABC):
    """Strategy for executing a batch of cells; results keep input order."""

    #: Registry name used by :func:`make_backend` and the CLI.
    name: str = "backend"
    #: Extra attempts the last :meth:`run` needed (policy bookkeeping).
    last_run_retries: int = 0
    #: Attempts of the last :meth:`run` that hit the per-cell timeout.
    last_run_timeouts: int = 0
    #: Cells the last :meth:`run` saw claimed by a worker (queue backend).
    last_run_claimed: int = 0
    #: Worker leases that expired during the last :meth:`run` (queue backend).
    last_run_expired_leases: int = 0
    #: Cells that ended DEAD in the last :meth:`run` (queue backend).
    last_run_dead: int = 0

    @abc.abstractmethod
    def run(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[ResultCallback] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> List[RunArtifact]:
        """Execute every cell and return one artifact per cell, in order.

        ``on_result`` fires as each cell completes, so callers (the
        Runner's cell cache) can persist progress before the whole batch
        is done — an interrupted sweep keeps its finished cells.
        ``policy`` applies per-cell timeout/retry guard-rails; the
        attempt counters land in ``last_run_retries`` /
        ``last_run_timeouts`` for the Runner's stats.
        """


class SerialBackend(ExecutionBackend):
    """Execute cells one after another in the current process.

    Accepts an optional ``resolver`` so ad-hoc (unregistered, possibly
    unpicklable) scheduler factories can be used.
    """

    name = "serial"

    def __init__(self, resolver: Optional[SchedulerResolver] = None) -> None:
        self._resolver = resolver

    def run(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[ResultCallback] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> List[RunArtifact]:
        self.last_run_retries = 0
        self.last_run_timeouts = 0
        counter = AttemptCounter()
        artifacts: List[RunArtifact] = []
        try:
            for index, spec in enumerate(specs):
                artifact = execute_run_with_policy(
                    spec, policy, self._resolver, counter
                )
                if on_result is not None:
                    on_result(index, artifact)
                artifacts.append(artifact)
        finally:
            self.last_run_retries = counter.retries
            self.last_run_timeouts = counter.timeouts
        return artifacts


def _execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: spec dict in, artifact dict out.

    Module-level (not a closure) so it is importable from spawned workers
    as well as forked ones.
    """
    return execute_run(RunSpec.from_dict(payload)).to_dict()


def _execute_payload_with_policy(
    payload: Dict[str, object], policy: Optional[ExecutionPolicy]
) -> Dict[str, object]:
    """Pool-worker entry point applying the execution policy in the worker.

    Timeout enforcement spawns a (grand)child process from the pool
    worker — pool workers are non-daemonic on the supported Python
    versions, so the watchdogged child is legal — and the attempt
    counters ride back next to the artifact dict.  A final failure is
    marshalled (not raised) so the counters survive; the parent
    re-raises after accounting for them.
    """
    spec = RunSpec.from_dict(payload)
    counter = AttemptCounter()
    try:
        artifact = execute_run_with_policy(spec, policy, counter=counter)
    except CellTimeoutError as exc:
        return {
            "error": str(exc),
            "timed_out": True,
            "retries": counter.retries,
            "timeouts": counter.timeouts,
        }
    except Exception as exc:  # noqa: BLE001 - marshalled to the parent
        return {
            "error": f"{type(exc).__name__}: {exc}",
            "timed_out": False,
            "retries": counter.retries,
            "timeouts": counter.timeouts,
        }
    return {
        "artifact": artifact.to_dict(),
        "retries": counter.retries,
        "timeouts": counter.timeouts,
    }


class ProcessPoolBackend(ExecutionBackend):
    """Fan cells out over worker processes; bit-identical to serial order.

    Only registry-named schedulers are supported (specs are resolved
    inside the workers); ad-hoc factory objects cannot cross the process
    boundary.  ``max_workers=None`` uses one worker per CPU, capped at
    the number of cells.
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = None if max_workers is None else int(max_workers)

    def run(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[ResultCallback] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> List[RunArtifact]:
        specs = list(specs)
        self.last_run_retries = 0
        self.last_run_timeouts = 0
        if not specs:
            return []
        use_policy = policy is not None and not policy.is_default
        workers = self.max_workers or os.cpu_count() or 1
        workers = max(1, min(workers, len(specs)))
        artifacts: List[Optional[RunArtifact]] = [None] * len(specs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            if use_policy:
                futures = {
                    pool.submit(_execute_payload_with_policy, spec.to_dict(), policy): index
                    for index, spec in enumerate(specs)
                }
            else:
                futures = {
                    pool.submit(_execute_payload, spec.to_dict()): index
                    for index, spec in enumerate(specs)
                }
            # Surface results (and persist them via on_result) as they
            # finish, not when the whole batch is done.
            for future in as_completed(futures):
                index = futures[future]
                payload = future.result()
                if use_policy:
                    self.last_run_retries += int(payload["retries"])
                    self.last_run_timeouts += int(payload["timeouts"])
                    if "error" in payload:
                        if payload["timed_out"]:
                            raise CellTimeoutError(payload["error"])
                        raise RuntimeError(payload["error"])
                    artifact = RunArtifact.from_dict(payload["artifact"])
                else:
                    artifact = RunArtifact.from_dict(payload)
                if on_result is not None:
                    on_result(index, artifact)
                artifacts[index] = artifact
        return list(artifacts)


class QueueBackend(ExecutionBackend):
    """Durable lease-based queue backend: sweeps that survive worker churn.

    Cells are enqueued (idempotently, by content key) into a file-backed
    :class:`~repro.experiments.queue.WorkQueue`; any number of worker
    processes — spawned locally by this backend and/or started by hand
    via ``python -m repro.experiments.worker <queue-dir>`` on any host
    sharing the filesystem — claim cells under a TTL lease, renew it by
    heartbeat, and publish artifacts through the content-keyed result
    store.  :meth:`run` waits for every cell to reach a terminal state
    and reassembles the results in input order, so from the Runner's
    perspective this backend is just a slower-to-start, crash-proof
    sibling of the process pool: artifacts are bit-identical to serial
    execution.

    Robustness semantics:

    * a worker that dies (SIGKILL, OOM, node loss) stops renewing its
      lease; once the TTL passes, *any* process — another worker or the
      waiting backend itself — expires the lease and the cell returns to
      PENDING;
    * a cell that keeps failing (or keeps killing its workers) is
      retried with exponential backoff up to ``policy.max_retries``
      extra attempts and then moves to DEAD — reported as a placeholder
      artifact, never silently dropped;
    * a fresh :meth:`run` against an existing queue directory resumes
      from the work log: completed cells are collected instantly,
      missing ones are (re-)enqueued by content key.
    """

    name = "queue"

    def __init__(
        self,
        queue_dir: PathLike,
        workers: Optional[int] = None,
        lease_ttl: float = 30.0,
        poll_interval: float = 0.2,
        wait_timeout_s: Optional[float] = None,
    ) -> None:
        if workers is not None and int(workers) < 0:
            raise ValueError("workers must be >= 0 (0 = external workers only)")
        self.queue_dir = Path(queue_dir)
        #: Local worker subprocesses spawned per run; 0 means the backend
        #: only waits — workers are attached externally (other processes
        #: or hosts).  ``None`` defaults to one local worker.
        self.workers = 1 if workers is None else int(workers)
        self.lease_ttl = float(lease_ttl)
        self.poll_interval = float(poll_interval)
        self.wait_timeout_s = wait_timeout_s

    def _spawn_worker(self, index: int) -> subprocess.Popen:
        # The worker re-imports repro; make sure it resolves to the same
        # installation even when the parent runs off a bare PYTHONPATH.
        import repro

        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.worker",
                str(self.queue_dir),
                "--worker-id",
                f"local-{index}-{uuid.uuid4().hex[:6]}",
                "--exit-when-done",
            ],
            env=env,
        )

    def run(
        self,
        specs: Sequence[RunSpec],
        on_result: Optional[ResultCallback] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> List[RunArtifact]:
        from repro.experiments.artifacts import dead_cell_artifact
        from repro.experiments.queue import WorkQueue

        specs = list(specs)
        self.last_run_retries = 0
        self.last_run_timeouts = 0
        self.last_run_claimed = 0
        self.last_run_expired_leases = 0
        self.last_run_dead = 0
        if not specs:
            return []
        queue = WorkQueue(self.queue_dir, lease_ttl=self.lease_ttl, policy=policy)
        keys = queue.enqueue_all(specs)
        index_of = {key: index for index, key in enumerate(keys)}
        artifacts: List[Optional[RunArtifact]] = [None] * len(specs)
        settled: set = set()
        procs = [self._spawn_worker(i) for i in range(self.workers)]
        deadline = (
            None if self.wait_timeout_s is None else time.monotonic() + self.wait_timeout_s
        )
        try:
            while len(settled) < len(specs):
                # Drive lease expiry from the waiting side too: recovery
                # must not depend on a surviving worker noticing.
                queue.expire_leases()
                states = queue.states()
                for key in keys:
                    if key in settled:
                        continue
                    state = states.get(key)
                    if state is None:
                        continue
                    if state.value == "completed":
                        artifact = queue.load_result(key)
                        if artifact is None:
                            continue  # torn write; the queue will re-run it
                        settled.add(key)
                        artifacts[index_of[key]] = artifact
                        if on_result is not None:
                            on_result(index_of[key], artifact)
                    elif state.value == "dead":
                        settled.add(key)
                        info = queue.dead_info(key) or {}
                        artifacts[index_of[key]] = dead_cell_artifact(
                            specs[index_of[key]],
                            error=str(info.get("error", "cell died in the queue")),
                            attempts=queue.attempts(key),
                        )
                if len(settled) >= len(specs):
                    break
                if procs and all(proc.poll() is not None for proc in procs):
                    failed = [proc.returncode for proc in procs if proc.returncode]
                    if failed:
                        raise RuntimeError(
                            f"all local queue workers exited (return codes {failed}) "
                            f"with unsettled cells remaining in {self.queue_dir}"
                        )
                    # Workers exited cleanly yet cells remain unsettled:
                    # they are inside a backoff window — spin one back up.
                    procs = [self._spawn_worker(len(procs))]
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"queue sweep did not settle within {self.wait_timeout_s:.0f}s "
                        f"({len(settled)}/{len(specs)} cells terminal)"
                    )
                time.sleep(self.poll_interval)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
            status = queue.status()
            self.last_run_claimed = status.claims
            self.last_run_expired_leases = status.expired_leases
            self.last_run_dead = status.dead
            # Queue-side retries = attempts beyond the first claim.
            self.last_run_retries = max(0, status.claims - len(specs))
        return list(artifacts)


#: Backend-name registry used by :func:`make_backend` and the CLI flags.
BACKENDS: Dict[str, type] = {
    SerialBackend.name: SerialBackend,
    ProcessPoolBackend.name: ProcessPoolBackend,
    QueueBackend.name: QueueBackend,
}


def make_backend(
    backend: Union[str, ExecutionBackend] = "serial",
    workers: Optional[int] = None,
    resolver: Optional[SchedulerResolver] = None,
    queue_dir: Optional[PathLike] = None,
    lease_ttl: float = 30.0,
) -> ExecutionBackend:
    """Build an execution backend from a name (or pass an instance through).

    ``workers`` selects the pool size for the process backend and the
    number of locally-spawned worker processes for the queue backend
    (0 = wait for externally-attached workers); asking for more than one
    worker with ``backend="serial"`` is an error (pick the process
    backend instead), as is a resolver with the process or queue backend
    (resolvers cannot be shipped to workers).  ``queue_dir`` is required
    by — and only meaningful for — the queue backend.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = str(backend).lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(sorted(BACKENDS))}"
        )
    if name == QueueBackend.name:
        if resolver is not None:
            raise ValueError("the queue backend resolves schedulers via the registry only")
        if queue_dir is None:
            raise ValueError("the queue backend needs a queue_dir")
        return QueueBackend(queue_dir, workers=workers, lease_ttl=lease_ttl)
    if queue_dir is not None:
        raise ValueError("queue_dir is only meaningful with backend='queue'")
    if name == SerialBackend.name:
        if workers is not None and int(workers) > 1:
            raise ValueError("the serial backend is single-worker; use backend='process'")
        return SerialBackend(resolver=resolver)
    if resolver is not None:
        raise ValueError("the process backend resolves schedulers via the registry only")
    return ProcessPoolBackend(max_workers=workers)

"""Flush on first read: what a scheduler reads equals what an eager write-back gives.

Between events the ledger holds the progress of running jobs and their
``Job`` objects are stale.  A scheduler snapshot writes them back the
first time its callback asks for a job view; ``compact_state``,
``_apply_allocation`` and ``_build_result`` flush for the readers that do
not go through a view.  The probe below reads ``samples_processed``,
``effective_epochs`` and ``throughput_profile.mean`` through each of
those paths, and the run is repeated on a simulator that writes every
job back before each snapshot (the eager contract): both must see and
produce the same values.
"""

from repro.baselines.base import ClusterState
from repro.baselines.fifo import FIFOScheduler
from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.cluster.topology import make_longhorn_cluster
from repro.faults.config import FaultConfig
from repro.faults.masking import compact_state, virtual_cluster
from repro.faults.plan import FaultInjection, FaultKind
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from tests.conftest import make_spec


def _progress(jobs):
    return [
        (
            job_id,
            job.samples_processed,
            job.effective_epochs,
            job.throughput_profile.mean,
            job.throughput_profile.count,
        )
        for job_id, job in sorted(jobs.items())
    ]


class _Probe(FIFOScheduler):
    """FIFO placement plus three ways of reading job progress.

    Epoch ends cycle through: read ``state.active_jobs()``; change another
    running job's local batches without reading any job view; read
    nothing.  A fault callback on a degraded cluster first reads the
    compacted view ONES evolves on.  From ``quiet_from`` (simulated
    seconds) on, no callback reads or proposes anything, so the run ends
    with progress that no callback wrote back.
    """

    name = "probe"

    def __init__(self, quiet_from):
        self.quiet_from = quiet_from
        self.seen = []
        self.epoch_ends = 0
        self.reconfigured = 0

    def on_job_arrival(self, job, state):
        return None if state.now >= self.quiet_from else super().on_job_arrival(job, state)

    def on_job_completion(self, job, state):
        return None if state.now >= self.quiet_from else super().on_job_completion(job, state)

    def on_fault(self, state):
        if state.now >= self.quiet_from:
            return None
        if state.unavailable_gpus:
            view = compact_state(state, *virtual_cluster(state))
            self.seen.append(("masked", state.now, _progress(view.state.active_jobs())))
        return super().on_fault(state)

    def on_epoch_end(self, job, record, state):
        if state.now >= self.quiet_from:
            return None
        self.epoch_ends += 1
        phase = self.epoch_ends % 3
        if phase == 0:
            self.seen.append(("view", state.now, _progress(state.active_jobs())))
        elif phase == 1:
            return self._reconfigure_another(job, state)
        return None

    def _reconfigure_another(self, job, state):
        allocation = state.allocation
        others = sorted(j for j in allocation.jobs() if j != job.job_id)
        if not others:
            return None
        target = others[self.epoch_ends % len(others)]
        workers = allocation.workers()
        for gpu in allocation.gpus_of(target):
            batch = workers[gpu].local_batch
            workers[gpu] = WorkerAssignment(target, batch // 2 if batch > 1 else 2)
        self.reconfigured += 1
        return Allocation(workers)


class _EagerSimulator(ClusterSimulator):
    """Writes every running job back before each snapshot."""

    def _state(self) -> ClusterState:
        self.ledger.materialize_all()
        return super()._state()


def _trace():
    return [
        make_spec(
            job_id=f"job-{i}",
            dataset_size=20_000 + 5_000 * (i % 3),
            requested_gpus=1 + i % 3,
            arrival_time=5.0 * i,
            base_epochs=8.0,
        )
        for i in range(8)
    ]


def _run(simulator_class):
    faults = FaultConfig(
        injections=(
            FaultInjection(40.0, FaultKind.NODE_DOWN, 1),
            FaultInjection(95.0, FaultKind.NODE_UP, 1),
            FaultInjection(130.0, FaultKind.NODE_DOWN, 0),
        )
    )
    probe = _Probe(quiet_from=150.0)
    simulator = simulator_class(
        make_longhorn_cluster(16),
        probe,
        _trace(),
        config=SimulationConfig(max_time=170.0, faults=faults),
    )
    return probe, simulator.run()


def test_every_read_path_sees_what_an_eager_flush_gives():
    lazy_probe, lazy = _run(ClusterSimulator)
    eager_probe, eager = _run(_EagerSimulator)
    assert {tag for tag, _, _ in lazy_probe.seen} == {"view", "masked"}
    assert lazy_probe.reconfigured > 0
    assert lazy_probe.seen == eager_probe.seen
    # The run stops with jobs still running, so the result's write-back counts.
    assert any(job.is_running for job in lazy.jobs.values())
    assert _progress(lazy.jobs) == _progress(eager.jobs)
    assert lazy.to_dict() == eager.to_dict()

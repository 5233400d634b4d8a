"""The simulator's live-job index and what scheduler callbacks see.

``ClusterSimulator`` keeps the admitted, uncompleted jobs in admission
order and hands that index to every callback as ``ClusterState.jobs``,
so per-event work scales with the live jobs, not with every job ever
submitted.  These tests pin the index against brute-force oracles over
``sim.jobs`` at every callback of faulted FIFO and ONES runs, and the
service's queue depth and done check built on it.
"""

from __future__ import annotations

import warnings
from collections import Counter

import pytest

from repro.cluster.topology import make_longhorn_cluster
from repro.experiments.registry import create_scheduler
from repro.faults.config import FaultConfig
from repro.service.engine import SchedulerService
from repro.service.load import generate_submissions
from repro.service.schemas import ServiceConfig, TenantQuota
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.workload.arrivals import ArrivalConfig
from repro.workload.trace import TraceConfig, TraceGenerator

warnings.filterwarnings("ignore", message="Covariance of the parameters")

_CALLBACKS = ("on_job_arrival", "on_epoch_end", "on_job_completion", "on_fault")


def _live_oracle(sim):
    """Admitted, uncompleted job ids in admission order, from ``sim.jobs``."""
    return [job_id for job_id, job in sim.jobs.items() if not job.is_completed]


class _Recorder:
    """Wraps a scheduler's callbacks to check each state it is handed."""

    def __init__(self, scheduler) -> None:
        self.sim = None
        self.calls = Counter()
        for name in _CALLBACKS:
            setattr(scheduler, name, self._wrap(name, getattr(scheduler, name)))

    def _wrap(self, name, callback):
        def checked(*args):
            self.check(name, args[0] if name == "on_job_completion" else None, args[-1])
            return callback(*args)

        return checked

    def check(self, name, completing, state) -> None:
        sim = self.sim
        self.calls[name] += 1
        live = _live_oracle(sim)
        assert list(state.jobs) == live, name
        arrived = [
            job_id for job_id in live if sim.jobs[job_id].arrival_time <= state.now
        ]
        active = state.active_jobs()
        assert list(active) == arrived
        assert all(active[job_id] is sim.jobs[job_id] for job_id in arrived)
        assert list(state.running_jobs()) == [
            job_id for job_id in arrived if sim.jobs[job_id].is_running
        ]
        assert list(state.pending_jobs()) == sorted(
            (job_id for job_id in arrived if not sim.jobs[job_id].is_running),
            key=lambda job_id: (sim.jobs[job_id].arrival_time, job_id),
        )
        if completing is not None:
            # The completing job is the callback argument, not a live job.
            assert completing.is_completed
            assert completing.job_id not in state.jobs


@pytest.mark.parametrize("scheduler_name", ["FIFO", "ONES"])
def test_callbacks_see_exactly_the_live_jobs(scheduler_name):
    trace = TraceGenerator(
        TraceConfig(num_jobs=12, arrival_rate=1.0 / 20.0, convergence_patience=4),
        seed=17,
    ).generate()
    scheduler = create_scheduler(scheduler_name, 2021)
    recorder = _Recorder(scheduler)
    faults = FaultConfig(profile="mtbf", seed=3, mtbf_hours=0.5, repair_minutes=8)
    sim = ClusterSimulator(
        make_longhorn_cluster(16),
        scheduler,
        trace,
        config=SimulationConfig(faults=faults),
    )
    recorder.sim = sim
    result = sim.run()

    assert result.incomplete == []
    assert set(recorder.calls) == set(_CALLBACKS), recorder.calls
    assert recorder.calls["on_job_completion"] == len(trace)
    assert sim.active == {}
    assert sim._all_done()


def _brute_force_queue_depth(service) -> int:
    sim = service.sim
    return sum(
        1
        for job_id, job in sim.jobs.items()
        if not job.is_completed and sim.allocation.config_of(job_id) is None
    )


def test_service_queue_depth_and_done_check_match_brute_force():
    service = SchedulerService(
        ServiceConfig(
            num_gpus=16,
            scheduler="FIFO",
            seed=5,
            mode="virtual",
            tenants=(
                TenantQuota(tenant="steady"),
                TenantQuota(tenant="bursty", max_active=6),
            ),
        )
    )
    submissions = []
    for tenant, profile, rate in (
        ("steady", "poisson", 1.0 / 20.0),
        ("bursty", "bursty", 1.0 / 40.0),
    ):
        submissions += generate_submissions(
            [tenant], 40, arrivals=ArrivalConfig(profile=profile, rate=rate, seed=9)
        )
    submissions.sort(key=lambda s: (s.arrival_time, s.tenant, s.name))

    depths = []
    for submission in submissions:
        service.advance_to(submission.arrival_time)
        service.submit(submission)
        depth = service.queue_depth()
        assert depth == _brute_force_queue_depth(service)
        depths.append(depth)
        assert not service.sim._all_done()  # the stream is still open
    assert max(depths) > 0  # the cluster was contended

    result = service.drain()
    sim = service.sim
    assert sim._all_done() == all(job.is_completed for job in sim.jobs.values())
    assert sim._all_done() and result.incomplete == []
    assert sim.active == {}
    assert service.queue_depth() == 0 == _brute_force_queue_depth(service)

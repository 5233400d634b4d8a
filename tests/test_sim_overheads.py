"""Simulator semantics around re-configuration overheads and preemption."""

import pytest

from repro.baselines.base import (
    ClusterState,
    SchedulerBase,
    SchedulerCapabilities,
    allocation_with_job,
)
from repro.cluster.allocation import Allocation
from repro.cluster.topology import make_longhorn_cluster
from repro.jobs.job import EpochRecord, Job
from repro.scaling.overhead import ReconfigurationKind
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from tests.conftest import make_spec


class GrowOnceScheduler(SchedulerBase):
    """Starts a job on 1 GPU, then grows it to 2 GPUs after its first epoch."""

    name = "grow-once"
    capabilities = SchedulerCapabilities("greedy", True, True, True)

    def __init__(self, kind: ReconfigurationKind) -> None:
        self.reconfiguration_kind = kind
        self.grew = False

    def on_job_arrival(self, job, state):
        return allocation_with_job(state.allocation, job, [0], [64])

    def on_epoch_end(self, job, record, state):
        if not self.grew:
            self.grew = True
            return allocation_with_job(state.allocation, job, [0, 1], [64, 64])
        return None


class PreemptOnceScheduler(SchedulerBase):
    """Preempts the job after its first epoch, resumes it after a pause."""

    name = "preempt-once"
    capabilities = SchedulerCapabilities("greedy", True, False, False)
    reconfiguration_kind = ReconfigurationKind.CHECKPOINT

    def __init__(self) -> None:
        self.state = "fresh"

    def on_job_arrival(self, job, state):
        return allocation_with_job(state.allocation, job, [0], [64])

    def on_epoch_end(self, job, record, state):
        if self.state == "fresh":
            self.state = "preempted"
            workers = state.allocation.workers().items()
            return Allocation({g: w for g, w in workers if w.job_id != job.job_id})
        return None

    def on_timer(self, state):
        pending = state.pending_jobs()
        if self.state == "preempted" and pending:
            self.state = "resumed"
            job = next(iter(pending.values()))
            return allocation_with_job(state.allocation, job, [0], [64])
        return None

    timer_interval = 60.0


def _single_job_trace():
    return [make_spec(job_id="solo", dataset_size=2000, base_epochs=3.0, patience=2)]


class TestReconfigurationOverheads:
    def test_elastic_grow_is_cheaper_than_checkpoint_grow(self, small_topology):
        results = {}
        for kind in (ReconfigurationKind.ELASTIC, ReconfigurationKind.CHECKPOINT):
            scheduler = GrowOnceScheduler(kind)
            result = ClusterSimulator(
                small_topology,
                scheduler,
                _single_job_trace(),
                config=SimulationConfig(start_overhead=0.0),
            ).run()
            results[kind] = result
        elastic = results[ReconfigurationKind.ELASTIC].completed["solo"]
        checkpoint = results[ReconfigurationKind.CHECKPOINT].completed["solo"]
        # Both grew once; the checkpoint-based run paid more overhead and
        # therefore finished later.
        assert checkpoint["reconfig_overhead"] > elastic["reconfig_overhead"]
        assert checkpoint["jct"] > elastic["jct"]

    def test_overhead_recorded_per_job(self, small_topology):
        scheduler = GrowOnceScheduler(ReconfigurationKind.ELASTIC)
        result = ClusterSimulator(small_topology, scheduler, _single_job_trace()).run()
        metrics = result.completed["solo"]
        # Start + one grow.
        assert metrics["reconfigurations"] == 2
        assert metrics["reconfig_overhead"] > 0

    def test_growth_changes_worker_count_in_records(self, small_topology):
        scheduler = GrowOnceScheduler(ReconfigurationKind.ELASTIC)
        result = ClusterSimulator(small_topology, scheduler, _single_job_trace()).run()
        counts = {r.num_gpus for r in result.jobs["solo"].epoch_records}
        assert counts == {1, 2}


class TestPreemptionSemantics:
    def test_preempted_job_accumulates_queuing_time(self, small_topology):
        scheduler = PreemptOnceScheduler()
        result = ClusterSimulator(
            small_topology,
            scheduler,
            _single_job_trace(),
            config=SimulationConfig(start_overhead=0.0),
        ).run()
        assert result.incomplete == []
        metrics = result.completed["solo"]
        # The pause between preemption and the next timer shows up as queuing.
        assert metrics["queuing_time"] > 0
        assert metrics["jct"] == pytest.approx(
            metrics["execution_time"] + metrics["queuing_time"], rel=1e-6
        )

    def test_preempted_job_keeps_progress(self, small_topology):
        scheduler = PreemptOnceScheduler()
        result = ClusterSimulator(
            small_topology, scheduler, _single_job_trace(),
            config=SimulationConfig(start_overhead=0.0),
        ).run()
        job = result.jobs["solo"]
        # Epochs from before the preemption still count.
        assert job.epochs_completed >= 3
        assert len(job.run_intervals) >= 2


class TestProposalValidation:
    def _state(self, simulator):
        return ClusterState(
            now=simulator.now,
            topology=simulator.topology,
            throughput_model=simulator.throughput_model,
            allocation=simulator.allocation,
            jobs=simulator.jobs,
        )

    def test_rejects_unknown_job(self, small_topology):
        simulator = ClusterSimulator(
            small_topology, GrowOnceScheduler(ReconfigurationKind.ELASTIC), _single_job_trace()
        )
        bad = Allocation.from_job_map({"ghost": [(0, 8)]})
        with pytest.raises(ValueError, match="unknown job"):
            simulator._apply_allocation(bad)

    def test_rejects_oversized_local_batch(self, small_topology):
        trace = _single_job_trace()
        simulator = ClusterSimulator(
            small_topology, GrowOnceScheduler(ReconfigurationKind.ELASTIC), trace
        )
        simulator._handle_arrival_for_test = None  # no-op marker
        # Register the job by processing its arrival event manually.
        simulator.run()  # completes; now build a fresh simulator for the check
        simulator = ClusterSimulator(
            small_topology, GrowOnceScheduler(ReconfigurationKind.ELASTIC), trace
        )
        from repro.cluster.events import Event, EventKind

        simulator.handlers[EventKind.JOB_ARRIVAL].handle(Event(time=0.0, kind=EventKind.JOB_ARRIVAL, job_id="solo"))
        too_big = Allocation.from_job_map(
            {"solo": [(0, trace[0].max_local_batch * 10)]}
        )
        with pytest.raises(ValueError, match="exceeds its device limit"):
            simulator._apply_allocation(too_big)

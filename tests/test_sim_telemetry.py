"""Tests for repro.sim.telemetry."""

import numpy as np
import pytest

from repro.baselines.fifo import FIFOScheduler
from repro.cluster.topology import make_longhorn_cluster
from repro.sim.simulator import ClusterSimulator
from repro.sim.telemetry import (
    ascii_utilization_sparkline,
    batch_size_timeline,
    busy_gpu_timeline,
    gpu_count_timeline,
    job_gantt,
    summarize_run,
    utilization_timeline,
)


@pytest.fixture(scope="module")
def fifo_result():
    trace_module = pytest.importorskip("repro.workload.trace")
    trace = trace_module.TraceGenerator(
        trace_module.TraceConfig(num_jobs=5, arrival_rate=1.0 / 10.0, convergence_patience=3),
        seed=3,
    ).generate()
    return ClusterSimulator(make_longhorn_cluster(8), FIFOScheduler(), trace).run()


class TestGantt:
    def test_segments_cover_every_completed_job(self, fifo_result):
        segments = job_gantt(fifo_result.jobs)
        assert {s.job_id for s in segments} == set(fifo_result.completed)
        for segment in segments:
            assert segment.duration >= 0
            assert segment.num_gpus >= 1

    def test_segments_sorted_by_start(self, fifo_result):
        segments = job_gantt(fifo_result.jobs)
        starts = [s.start for s in segments]
        assert starts == sorted(starts)

    def test_gantt_durations_match_execution_times(self, fifo_result):
        segments = job_gantt(fifo_result.jobs)
        for job_id, metrics in fifo_result.completed.items():
            total = sum(s.duration for s in segments if s.job_id == job_id)
            assert total == pytest.approx(metrics["execution_time"], rel=1e-6)


class TestTimelines:
    def test_busy_gpus_bounded_by_cluster(self, fifo_result):
        _, busy = busy_gpu_timeline(fifo_result, num_points=100)
        assert busy.max() <= fifo_result.num_gpus
        assert busy.min() >= 0

    def test_utilization_in_unit_interval(self, fifo_result):
        _, util = utilization_timeline(fifo_result, num_points=100)
        assert np.all(util >= 0)
        assert np.all(util <= 1.0 + 1e-9)

    def test_batch_size_timeline(self, fifo_result):
        job = next(iter(fifo_result.jobs.values()))
        times, batches = batch_size_timeline(job)
        assert len(times) == len(batches)
        assert np.all(batches >= 1)

    def test_gpu_count_timeline(self, fifo_result):
        job = next(iter(fifo_result.jobs.values()))
        times, counts = gpu_count_timeline(job)
        assert len(times) == len(counts)
        assert counts.max() >= 1


class TestSummary:
    def test_summarize_run_fields(self, fifo_result):
        telemetry = summarize_run(fifo_result)
        data = telemetry.as_dict()
        assert data["scheduler"] == "FIFO"
        assert 0 < data["mean_utilization"] <= 1.0
        assert data["peak_utilization"] >= data["mean_utilization"]
        assert data["mean_gpus_per_job"] >= 1.0
        assert data["mean_peak_batch_ratio"] >= 1.0

    def test_sparkline_has_requested_width(self, fifo_result):
        line = ascii_utilization_sparkline(fifo_result, width=40)
        assert len(line) == 40

    def test_invalid_sparkline_width(self, fifo_result):
        with pytest.raises(ValueError):
            ascii_utilization_sparkline(fifo_result, width=0)


@pytest.fixture(scope="module")
def faulted_result():
    """FIFO run with one node down mid-run (NODE_DOWN @60s, NODE_UP @120s)."""
    from repro.faults.config import FaultConfig
    from repro.faults.plan import FaultInjection, FaultKind
    from repro.sim.simulator import SimulationConfig
    from repro.workload.trace import TraceConfig, TraceGenerator

    trace = TraceGenerator(
        TraceConfig(num_jobs=5, arrival_rate=1.0 / 10.0, convergence_patience=3),
        seed=3,
    ).generate()
    faults = FaultConfig(
        injections=(
            FaultInjection(60.0, FaultKind.NODE_DOWN, 1),
            FaultInjection(120.0, FaultKind.NODE_UP, 1),
        )
    )
    return ClusterSimulator(
        make_longhorn_cluster(8), FIFOScheduler(), trace,
        config=SimulationConfig(faults=faults),
    ).run()


class TestZeroDurationSegments:
    def test_zero_duration_segment_is_kept_but_contributes_no_busy_time(self, fifo_result):
        import copy
        from dataclasses import replace

        job = copy.deepcopy(next(iter(fifo_result.jobs.values())))
        from repro.jobs.job import RunInterval

        job.run_intervals.append(RunInterval(start=5.0, end=5.0, num_gpus=4))
        segments = job_gantt({job.spec.job_id: job})
        zero = [s for s in segments if s.duration == 0.0]
        assert len(zero) == 1
        assert zero[0].start == zero[0].end == 5.0
        # A zero-width segment must not light up any timeline sample.
        doctored = replace(fifo_result, jobs={job.spec.job_id: job})
        baseline = replace(
            fifo_result,
            jobs={job.spec.job_id: next(iter(fifo_result.jobs.values()))},
        )
        _, busy_doctored = busy_gpu_timeline(doctored, num_points=100)
        _, busy_baseline = busy_gpu_timeline(baseline, num_points=100)
        assert np.array_equal(busy_doctored, busy_baseline)

    def test_open_interval_without_completion_closes_at_start(self, fifo_result):
        import copy
        from repro.jobs.job import RunInterval

        job = copy.deepcopy(next(iter(fifo_result.jobs.values())))
        job.completion_time = None
        job.run_intervals = [RunInterval(start=9.0, end=None, num_gpus=2)]
        (segment,) = job_gantt({job.spec.job_id: job})
        assert segment.end == 9.0
        assert segment.duration == 0.0


class TestFaultBoundaries:
    def test_evicted_jobs_close_their_intervals_at_the_fault(self, faulted_result):
        segments = job_gantt(faulted_result.jobs)
        evicted = [s for s in segments if s.end == 60.0]
        # NODE_DOWN at t=60 evicts the victims mid-interval: their open
        # run intervals must close exactly at the fault time.
        assert evicted
        for segment in evicted:
            assert segment.start < 60.0

    def test_all_jobs_still_complete_and_covered(self, faulted_result):
        assert faulted_result.incomplete == []
        segments = job_gantt(faulted_result.jobs)
        assert {s.job_id for s in segments} == set(faulted_result.completed)
        for segment in segments:
            assert segment.duration >= 0

    def test_busy_gpus_respect_the_outage_capacity(self, faulted_result):
        times, busy = busy_gpu_timeline(faulted_result, num_points=400)
        in_outage = (times > 62.0) & (times < 118.0)
        assert in_outage.any()
        # One 4-GPU node is down: at most the other node's GPUs are busy.
        assert busy[in_outage].max() <= 4
        assert busy.max() <= faulted_result.num_gpus

    def test_utilization_stays_in_unit_interval_across_faults(self, faulted_result):
        times, util = utilization_timeline(faulted_result, num_points=400)
        assert np.all(util >= 0)
        assert np.all(util <= 1.0 + 1e-9)
        # The run straddles both fault boundaries.
        assert times[0] < 60.0 < times[-1]
        assert times[-1] > 120.0

    def test_summary_counts_fault_era_reconfigurations(self, faulted_result):
        telemetry = summarize_run(faulted_result)
        assert telemetry.makespan == pytest.approx(faulted_result.makespan)
        assert 0 < telemetry.mean_utilization <= 1.0

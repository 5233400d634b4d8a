"""Tests for repro.sim.simulator."""

import json

import pytest

from repro.baselines.fifo import FIFOScheduler
from repro.baselines.tiresias import TiresiasScheduler
from repro.cluster.topology import make_longhorn_cluster
from repro.sim.simulator import ClusterSimulator, SimulationConfig, SimulationResult
from tests.conftest import make_spec


class TestSimulationConfig:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(max_time=0)
        with pytest.raises(ValueError):
            SimulationConfig(start_overhead=-1)
        with pytest.raises(ValueError):
            SimulationConfig(max_events=10)


class TestConstruction:
    def test_empty_trace_rejected(self, small_topology):
        with pytest.raises(ValueError):
            ClusterSimulator(small_topology, FIFOScheduler(), [])

    def test_duplicate_job_ids_rejected(self, small_topology):
        trace = [make_spec(job_id="dup"), make_spec(job_id="dup")]
        with pytest.raises(ValueError):
            ClusterSimulator(small_topology, FIFOScheduler(), trace)


class TestSingleJob:
    def test_job_completes_with_expected_metrics(self, small_topology):
        spec = make_spec(job_id="solo", dataset_size=2000, base_epochs=3.0, patience=2)
        config = SimulationConfig(start_overhead=5.0)
        result = ClusterSimulator(small_topology, FIFOScheduler(), [spec], config=config).run()
        assert result.incomplete == []
        metrics = result.completed["solo"]
        assert metrics["jct"] > 0
        assert metrics["execution_time"] > 0
        # A single job on an empty cluster never queues.
        assert metrics["queuing_time"] == pytest.approx(0.0, abs=1e-6)
        # The epoch count is at least target epochs + patience.
        assert metrics["epochs"] >= 2 + 2

    def test_execution_time_includes_start_overhead(self, small_topology):
        spec = make_spec(job_id="solo", dataset_size=2000, base_epochs=2.0, patience=2)
        fast = ClusterSimulator(
            small_topology, FIFOScheduler(), [spec], config=SimulationConfig(start_overhead=0.0)
        ).run()
        slow = ClusterSimulator(
            small_topology, FIFOScheduler(), [spec], config=SimulationConfig(start_overhead=50.0)
        ).run()
        assert slow.completed["solo"]["jct"] > fast.completed["solo"]["jct"] + 40

    def test_job_epochs_match_dataset_passes(self, small_topology):
        spec = make_spec(job_id="solo", dataset_size=1000, base_epochs=2.0, patience=2)
        result = ClusterSimulator(small_topology, FIFOScheduler(), [spec]).run()
        job = result.jobs["solo"]
        assert job.samples_processed == pytest.approx(
            job.epochs_completed * spec.dataset_size, rel=1e-6
        )


class TestMultiJob:
    def test_queuing_occurs_when_cluster_contended(self, small_topology):
        # Four 8-GPU jobs on an 8-GPU cluster: they must serialise.
        trace = [
            make_spec(job_id=f"j{i}", requested_gpus=8, base_batch=512, dataset_size=4000,
                      base_epochs=2.0, patience=2, arrival_time=0.0)
            for i in range(4)
        ]
        result = ClusterSimulator(small_topology, FIFOScheduler(), trace).run()
        assert result.incomplete == []
        assert result.average_queuing_time > 0

    def test_gpu_utilization_bounded(self, small_topology, tiny_trace):
        result = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace).run()
        assert 0.0 < result.gpu_utilization <= 1.0

    def test_makespan_covers_all_jobs(self, small_topology, tiny_trace):
        result = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace).run()
        last_completion = max(m["jct"] + spec.arrival_time
                              for spec, m in zip(sorted(tiny_trace, key=lambda s: s.job_id),
                                                 [result.completed[s.job_id] for s in sorted(tiny_trace, key=lambda s: s.job_id)]))
        assert result.makespan == pytest.approx(last_completion, rel=1e-6)

    def test_max_time_leaves_jobs_incomplete(self, small_topology, tiny_trace):
        config = SimulationConfig(max_time=30.0)
        result = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace, config=config).run()
        assert len(result.incomplete) > 0

    def test_preemptive_scheduler_charges_reconfigurations(self, small_topology, tiny_trace):
        result = ClusterSimulator(small_topology, TiresiasScheduler(), tiny_trace).run()
        assert result.num_reconfigurations >= len(tiny_trace)

    def test_completion_keeps_surviving_worker_objects(self, small_topology):
        """Completing a job drops its workers and carries every other
        deployed worker over as the same object."""
        trace = [
            make_spec(job_id=f"j{i}", requested_gpus=2, dataset_size=1000 * (i + 1),
                      base_epochs=2.0, patience=2, arrival_time=0.0)
            for i in range(3)
        ]
        deployed, survivors = [], []

        class Recording(FIFOScheduler):
            def on_job_completion(self, job, state):
                survivors.append((job.job_id, state.allocation.workers()))
                return super().on_job_completion(job, state)

        sim = ClusterSimulator(small_topology, Recording(), trace)
        complete = sim._complete_job

        def recording_complete(job):
            deployed.append(sim.allocation.workers())
            complete(job)

        sim._complete_job = recording_complete
        sim.run()
        assert len(survivors) == len(trace)
        for before, (job_id, after) in zip(deployed, survivors):
            assert list(after) == [g for g, w in before.items() if w.job_id != job_id]
            assert all(after[gpu] is before[gpu] for gpu in after)
        assert any(after for _, after in survivors)

    def test_deterministic_given_same_inputs(self, small_topology, tiny_trace):
        a = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace).run()
        b = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace).run()
        assert a.jct_values().tolist() == b.jct_values().tolist()


class TestResultViews:
    def test_summary_keys(self, small_topology, tiny_trace):
        result = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace).run()
        summary = result.summary()
        assert summary["scheduler"] == "FIFO"
        assert summary["completed_jobs"] == len(tiny_trace)
        assert summary["average_jct"] > 0

    def test_summary_round_trips_with_declared_types(self, small_topology, tiny_trace):
        """The summary keys feed `analysis.export` / `experiments.report`:
        heterogeneous by design (str scheduler, int counts, float metrics)
        and stable through both JSON and the result's dict round-trip."""
        result = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace).run()
        summary = result.summary()
        assert set(summary) == {
            "scheduler", "num_gpus", "completed_jobs", "incomplete_jobs",
            "average_jct", "average_execution_time", "average_queuing_time",
            "makespan", "gpu_utilization", "reconfigurations",
        }
        assert isinstance(summary["scheduler"], str)
        for key in ("num_gpus", "completed_jobs", "incomplete_jobs", "reconfigurations"):
            assert isinstance(summary[key], int), key
        for key in ("average_jct", "average_execution_time", "average_queuing_time",
                    "makespan", "gpu_utilization"):
            assert isinstance(summary[key], float), key
        # JSON round-trip preserves every value bit-for-bit.
        assert json.loads(json.dumps(summary)) == summary
        # A result rebuilt from its serialized form reports the same summary.
        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.summary() == summary

    def test_metric_vectors_aligned(self, small_topology, tiny_trace):
        result = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace).run()
        n = len(result.completed)
        assert len(result.jct_values()) == n
        assert len(result.execution_values()) == n
        assert len(result.queuing_values()) == n
        # JCT = execution + queuing for every job.
        for jct, ex, q in zip(
            result.jct_values(), result.execution_values(), result.queuing_values()
        ):
            assert jct == pytest.approx(ex + q, rel=1e-6, abs=1e-6)

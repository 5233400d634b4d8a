"""Tests for repro.jobs.job."""

import pytest

from repro.jobs.job import Job, JobStatus
from tests.conftest import make_job, make_running_job, make_spec


class TestJobSpec:
    def test_valid_spec(self):
        spec = make_spec()
        assert spec.max_local_batch == spec.model.max_local_batch

    def test_batch_larger_than_dataset_rejected(self):
        with pytest.raises(ValueError):
            make_spec(dataset_size=64, base_batch=128)

    def test_empty_job_id_rejected(self):
        with pytest.raises(ValueError):
            make_spec(job_id="")


class TestLifecycle:
    def test_initial_state(self):
        job = make_job()
        assert job.status is JobStatus.PENDING
        assert job.num_gpus == 0
        assert job.global_batch == 0
        assert not job.is_running and not job.is_completed

    def test_start_and_stop(self):
        job = make_job()
        job.start_running(10.0, [0, 1], [64, 64])
        assert job.is_running
        assert job.num_gpus == 2
        assert job.global_batch == 128
        assert job.first_start_time == 10.0
        job.stop_running(20.0)
        assert not job.is_running
        assert job.executed_time() == pytest.approx(10.0)
        assert job.attained_service == pytest.approx(20.0)

    def test_start_requires_workers(self):
        job = make_job()
        with pytest.raises(ValueError):
            job.start_running(0.0, [], [])

    def test_start_rejects_mismatched_lists(self):
        job = make_job()
        with pytest.raises(ValueError):
            job.start_running(0.0, [0, 1], [64])

    def test_cannot_start_completed_job(self):
        job = make_running_job()
        job.mark_completed(5.0)
        with pytest.raises(RuntimeError):
            job.start_running(6.0, [0], [64])

    def test_reconfiguration_while_running_tracks_service(self):
        job = make_running_job(gpu_ids=(0,), local_batches=(64,))
        job.start_running(10.0, [0, 1], [64, 64])
        assert job.num_gpus == 2
        # 10 s at 1 GPU so far.
        assert job.attained_service == pytest.approx(10.0)

    def test_generation_bumps_on_transitions(self):
        job = make_job()
        g0 = job.generation
        job.start_running(0.0, [0], [64])
        job.stop_running(1.0)
        assert job.generation >= g0 + 2


class TestProgress:
    def test_advance_accumulates_samples_and_epochs(self):
        job = make_running_job(dataset_size=1000, local_batches=(100,))
        job.advance(500, duration=5.0)
        assert job.samples_processed == 500
        assert 0 < job.effective_epochs <= 0.5
        assert job.measured_throughput == pytest.approx(100.0)

    def test_advance_requires_running(self):
        job = make_job()
        with pytest.raises(RuntimeError):
            job.advance(10, 1.0)

    def test_loss_and_accuracy_move_with_progress(self):
        job = make_running_job(dataset_size=1000)
        loss0, acc0 = job.current_loss, job.current_accuracy
        job.advance(5000, duration=10.0)
        assert job.current_loss < loss0
        assert job.current_accuracy > acc0
        assert 0 < job.loss_improvement_ratio < 1

    def test_batch_change_spike_applied(self):
        job = make_running_job(local_batches=(64,))
        job.advance(2000, 10.0)
        before = job.effective_epochs
        spike = job.apply_batch_change(64, 4096)
        assert spike > 0
        assert job.effective_epochs < before

    def test_complete_epoch_and_convergence(self):
        job = make_running_job(dataset_size=1000, base_epochs=1.0, patience=2)
        for epoch in range(1, 6):
            job.advance(1000, 2.0)
            record = job.complete_epoch(now=2.0 * epoch)
            assert record.epoch_index == epoch
            if job.is_converged:
                break
        assert job.is_converged
        assert job.consecutive_target_epochs >= 2

    def test_epoch_records_capture_configuration(self):
        job = make_running_job(gpu_ids=(0, 1), local_batches=(64, 64))
        job.advance(4000, 4.0)
        record = job.complete_epoch(4.0)
        assert record.num_gpus == 2
        assert record.global_batch == 128
        assert record.samples_processed == pytest.approx(4000)


class TestMetrics:
    def test_completion_metrics(self):
        job = make_running_job(now=5.0, arrival_time=0.0)
        job.advance(1000, 10.0)
        job.mark_completed(25.0)
        metrics = job.completion_metrics()
        assert metrics["jct"] == pytest.approx(25.0)
        assert metrics["execution_time"] == pytest.approx(20.0)
        assert metrics["queuing_time"] == pytest.approx(5.0)

    def test_metrics_before_completion_raise(self):
        with pytest.raises(RuntimeError):
            make_job().completion_metrics()

    def test_executed_time_open_interval_needs_now(self):
        job = make_running_job(now=0.0)
        with pytest.raises(ValueError):
            job.executed_time()
        assert job.executed_time(now=7.0) == pytest.approx(7.0)

    def test_record_reconfiguration(self):
        job = make_job()
        job.record_reconfiguration(1.5)
        job.record_reconfiguration(0.5)
        assert job.reconfig_count == 2
        assert job.reconfig_overhead_total == pytest.approx(2.0)

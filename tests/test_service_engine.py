"""SchedulerService engine: admission, decisions, telemetry, determinism."""

import pytest

from repro.service.engine import LatencyHistogram, SchedulerService
from repro.service.schemas import JobSubmission, ServiceConfig, TenantQuota


def make_service(**overrides) -> SchedulerService:
    defaults = dict(
        num_gpus=16,
        scheduler="ONES",
        seed=7,
        mode="virtual",
        tenants=(
            TenantQuota(tenant="alice", max_gpus=12),
            TenantQuota(tenant="bob", max_gpus=4, max_active=2),
        ),
    )
    defaults.update(overrides)
    return SchedulerService(ServiceConfig(**defaults))


class TestLatencyHistogram:
    def test_percentiles_and_mean(self):
        hist = LatencyHistogram()
        for ms in (1.0, 2.0, 4.0, 8.0, 100.0):
            hist.record(ms / 1e3)
        assert hist.count == 5
        assert hist.percentile(50.0) <= hist.percentile(99.0)
        assert hist.percentile(99.0) <= hist.max_value
        assert hist.mean == pytest.approx(0.023, abs=1e-3)

    def test_empty_histogram_is_zero(self):
        hist = LatencyHistogram()
        assert hist.percentile(50.0) == 0.0
        assert hist.as_dict()["count"] == 0.0

    def test_bucket_error_is_bounded(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.record(0.010)
        p50 = hist.percentile(50.0)
        # Log2 buckets: the answer lies within one bucket (2x) of truth.
        assert 0.010 <= p50 <= 0.020


class TestSubmissionPath:
    def test_first_submission_is_placed(self):
        service = make_service()
        decision = service.submit(JobSubmission(tenant="alice", replicas=2))
        assert decision.status == "placed"
        assert len(decision.gpu_ids) >= 1
        assert decision.decision_latency_ms > 0.0
        assert decision.job_id

    def test_unknown_tenant_is_rejected(self):
        service = make_service()
        decision = service.submit(JobSubmission(tenant="mallory"))
        assert decision.status == "rejected"
        assert "unknown tenant" in decision.reason

    def test_schema_violation_is_rejected_not_raised(self):
        service = make_service()
        decision = service.submit(JobSubmission(tenant="alice", replicas=99))
        assert decision.status == "rejected"
        assert "exceeds the cluster size" in decision.reason

    def test_gpu_quota_oversubscription_is_rejected(self):
        service = make_service()
        first = service.submit(JobSubmission(tenant="bob", replicas=3))
        assert first.status != "rejected"
        second = service.submit(JobSubmission(tenant="bob", replicas=2))
        assert second.status == "rejected"
        assert "oversubscribed" in second.reason

    def test_max_active_cap_is_enforced(self):
        service = make_service()
        assert service.submit(JobSubmission(tenant="bob")).status != "rejected"
        assert service.submit(JobSubmission(tenant="bob")).status != "rejected"
        third = service.submit(JobSubmission(tenant="bob"))
        assert third.status == "rejected"
        assert "active jobs" in third.reason

    def test_quota_frees_up_after_completion(self):
        service = make_service()
        service.submit(JobSubmission(tenant="bob", replicas=3))
        service.drain()  # completes the job, releasing its demand
        state = service.tenants["bob"]
        assert state.outstanding_gpus == 0
        assert state.completed == 1

    def test_unlimited_tenant_queues_under_contention(self):
        service = make_service(
            num_gpus=4,
            scheduler="FIFO",
            tenants=(TenantQuota(tenant="alice"), TenantQuota(tenant="bob")),
        )
        assert service.submit(JobSubmission(tenant="alice", replicas=4)).status == "placed"
        for _ in range(3):
            decision = service.submit(JobSubmission(tenant="alice", replicas=4))
            assert decision.status == "queued"

    def test_open_admission_when_no_tenants_configured(self):
        service = make_service(tenants=())
        decision = service.submit(JobSubmission(tenant="walk-in"))
        assert decision.status != "rejected"
        assert "walk-in" in service.tenants

    def test_arrival_beyond_horizon_is_rejected(self):
        service = make_service(max_time=3600.0)
        decision = service.submit(
            JobSubmission(tenant="alice", arrival_time=7200.0)
        )
        assert decision.status == "rejected"
        assert "horizon" in decision.reason

    def test_workload_template_is_honoured(self):
        service = make_service()
        template = service.catalog[0]
        decision = service.submit(
            JobSubmission(tenant="alice", workload=template.name)
        )
        assert decision.status != "rejected"
        spec = service.sim._spec_index[decision.job_id]
        assert spec.dataset == template.dataset
        assert spec.dataset_size == template.dataset_size

    def test_decisions_are_published_to_streams(self):
        service = make_service()
        service.submit(JobSubmission(tenant="alice"))
        records, _ = service.streams.read("alice", 0)
        assert len(records) == 1
        assert records[0]["status"] in ("placed", "queued")


class TestDeterminism:
    def _run(self):
        service = make_service()
        decisions = [
            service.submit(JobSubmission(tenant="alice", job_type="cv",
                                         replicas=1 + (i % 3),
                                         arrival_time=60.0 * i))
            for i in range(8)
        ]
        result = service.drain()
        return decisions, result

    def test_same_submissions_same_jobs_and_metrics(self):
        first_decisions, first_result = self._run()
        second_decisions, second_result = self._run()
        for a, b in zip(first_decisions, second_decisions):
            assert a.job_id == b.job_id
            assert a.status == b.status
            assert a.gpu_ids == b.gpu_ids
            assert a.local_batches == b.local_batches
        assert first_result.completed == second_result.completed
        assert first_result.events_processed == second_result.events_processed


class TestTelemetry:
    def test_status_snapshot_shape(self):
        service = make_service()
        service.submit(JobSubmission(tenant="alice"))
        status = service.status()
        assert status["submissions"] == 1
        assert status["jobs_total"] == 1
        assert "alice" in status["tenants"]
        assert status["tenants"]["alice"]["placed"] == 1

    def test_metrics_snapshot_shape(self):
        service = make_service()
        service.submit(JobSubmission(tenant="alice"))
        service.submit(JobSubmission(tenant="bob", arrival_time=120.0))
        metrics = service.metrics()
        assert metrics["decision_latency"]["count"] == 2.0
        assert set(metrics["decision_latency_by_tenant"]) == {"alice", "bob"}
        assert metrics["submissions_per_second"] > 0.0
        assert "JOB_ARRIVAL" in metrics["step_latency_by_kind"]

    def test_completion_stream_after_drain(self):
        service = make_service()
        service.submit(JobSubmission(tenant="alice"))
        service.drain()
        records, _ = service.streams.read("alice", 0)
        kinds = [r.get("type", "decision") for r in records]
        assert "completion" in kinds

    def test_queue_depth_counts_unplaced_jobs(self):
        service = make_service()
        assert service.queue_depth() == 0
        service.submit(JobSubmission(tenant="alice"))
        # One running job holding GPUs: depth stays 0.
        assert service.queue_depth() == 0


class TestHistogramBucketEdges:
    """Pin the power-of-two edge convention of LatencyHistogram buckets."""

    def test_floor_and_below_land_in_bucket_zero(self):
        assert LatencyHistogram._bucket_index(0.0) == 0
        assert LatencyHistogram._bucket_index(5e-7) == 0
        assert LatencyHistogram._bucket_index(1e-6) == 0

    def test_exact_power_of_two_edge_is_the_upper_bound_of_its_bucket(self):
        # 2 µs is the upper edge of bucket 1 = (1 µs, 2 µs]; it must not
        # spill into bucket 2 (the bug this pins: float noise in log2
        # used to push exact edges one bucket up).
        assert LatencyHistogram._bucket_index(2e-6) == 1
        assert LatencyHistogram._bucket_index(4e-6) == 2
        assert LatencyHistogram._bucket_index(1e-6 * 2**10) == 10
        assert LatencyHistogram._bucket_index(1e-6 * 2**20) == 20

    def test_near_edge_float_noise_snaps_onto_the_edge(self):
        edge = 1e-6 * 2**20
        assert LatencyHistogram._bucket_index(edge * (1.0 + 1e-12)) == 20
        assert LatencyHistogram._bucket_index(edge * (1.0 - 1e-12)) == 20
        # A value clearly past the edge belongs to the next bucket.
        assert LatencyHistogram._bucket_index(edge * 1.01) == 21

    def test_interior_values_round_up(self):
        # 3 µs lies inside (2 µs, 4 µs] -> bucket 2.
        assert LatencyHistogram._bucket_index(3e-6) == 2

    def test_edge_valued_load_keeps_percentile_at_the_edge(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.record(2e-6)
        # All mass sits in bucket 1, whose upper bound is the value
        # itself: the percentile is exact, not one bucket high.
        assert hist.percentile(50.0) == pytest.approx(2e-6)
        assert hist.percentile(99.0) == pytest.approx(2e-6)

    def test_overflow_bucket_percentile_is_bounded(self):
        hist = LatencyHistogram()
        huge = 2.0e6  # beyond floor * 2^40 ~ 1.1e6 s
        hist.record(huge)
        assert LatencyHistogram._bucket_index(huge) == LatencyHistogram._BUCKETS
        p99 = hist.percentile(99.0)
        assert p99 <= hist.max_value
        assert p99 == pytest.approx(1e-6 * 2.0**40)

    def test_percentile_capped_at_observed_max(self):
        hist = LatencyHistogram()
        for _ in range(10):
            hist.record(0.010)
        # Bucket upper bound is ~16.4 ms but nothing above 10 ms was
        # ever observed; the cap keeps the answer honest.
        assert hist.percentile(99.0) == pytest.approx(0.010)


class TestMetricsRegistry:
    """The scheduler's registry counters in the service's metrics snapshot."""

    def test_metrics_snapshot_includes_scheduler_section(self):
        service = make_service()
        service.submit(JobSubmission(tenant="alice"))
        metrics = service.metrics()
        scheduler = metrics["scheduler"]
        assert scheduler["full_updates"] >= 1
        assert "throughput_table_reuses" in scheduler


class TestAdmissionTraceEvents:
    def test_admit_and_reject_events_recorded(self):
        from repro.obs.trace import TraceRecorder, install_tracer, uninstall_tracer

        tracer = install_tracer(TraceRecorder())
        try:
            service = make_service()
            service.submit(JobSubmission(tenant="alice"))
            service.submit(JobSubmission(tenant="nobody"))
        finally:
            uninstall_tracer()
        names = [r["name"] for r in tracer.records() if r["cat"] == "service"]
        assert "admit" in names
        assert "reject" in names
        admit = next(r for r in tracer.records() if r["name"] == "admit")
        assert admit["attrs"]["tenant"] == "alice"
        assert admit["attrs"]["status"] in ("placed", "queued")

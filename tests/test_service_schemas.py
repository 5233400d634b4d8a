"""Boundary schemas of the scheduler service: round-trips and validation."""

import pytest

from repro.service.schemas import (
    JobSubmission,
    JobType,
    PlacementDecision,
    SchemaValidationError,
    ServiceConfig,
    TenantQuota,
)

CATALOG = ("cifar10-resnet18-20k", "sst2-bert-10k")


class TestJobSubmission:
    def test_gpu_demand_is_replicas_times_gpus(self):
        sub = JobSubmission(tenant="a", replicas=3, gpus_per_replica=2)
        assert sub.gpu_demand == 6

    def test_round_trips_through_json(self):
        sub = JobSubmission(tenant="a", job_type="cv", replicas=2,
                            gpus_per_replica=2, workload=CATALOG[0],
                            name="demo", arrival_time=12.5)
        clone = JobSubmission.from_dict(sub.to_dict())
        assert clone == sub

    def test_round_trip_without_optionals(self):
        sub = JobSubmission(tenant="a")
        clone = JobSubmission.from_dict(sub.to_dict())
        assert clone == sub
        assert clone.arrival_time is None and clone.spec is None

    def test_spec_payload_survives_round_trip(self):
        payload = {"job_id": "j-1", "model": "resnet18"}
        sub = JobSubmission(tenant="a", spec=payload)
        clone = JobSubmission.from_dict(sub.to_dict())
        assert clone.spec == payload

    def test_validate_accepts_good_submission(self):
        JobSubmission(tenant="a", job_type="nlp", replicas=2).validate(64, CATALOG)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(tenant=""), "tenant"),
        (dict(tenant="   "), "tenant"),
        (dict(tenant="a", job_type="quantum"), "job_type"),
        (dict(tenant="a", replicas=0), "replicas"),
        (dict(tenant="a", replicas=-2), "replicas"),
        (dict(tenant="a", gpus_per_replica=0), "gpus_per_replica"),
        (dict(tenant="a", workload="no-such-template"), "workload"),
        (dict(tenant="a", arrival_time=-5.0), "arrival_time"),
    ])
    def test_validate_names_the_offending_field(self, kwargs, field):
        with pytest.raises(SchemaValidationError) as err:
            JobSubmission(**kwargs).validate(64, CATALOG)
        assert err.value.field == field

    def test_validate_rejects_demand_beyond_cluster(self):
        with pytest.raises(SchemaValidationError) as err:
            JobSubmission(tenant="a", replicas=9, gpus_per_replica=8).validate(64, CATALOG)
        assert "72" in str(err.value)

    def test_job_type_is_case_insensitive(self):
        sub = JobSubmission(tenant="a", job_type="CV")
        assert sub.job_type == JobType.CV.value
        sub.validate(64, CATALOG)


class TestPlacementDecision:
    def _decision(self, **overrides):
        base = dict(submission_id="sub-1", job_id="svc-1", tenant="a",
                    status="placed", virtual_time=10.0,
                    decision_latency_ms=1.5, gpu_ids=(0, 1),
                    local_batches=(128, 128), queue_depth=2)
        base.update(overrides)
        return PlacementDecision(**base)

    def test_rejects_unknown_status(self):
        with pytest.raises(ValueError):
            self._decision(status="maybe")


class TestTenantQuota:
    def test_rejects_empty_tenant(self):
        with pytest.raises(ValueError):
            TenantQuota(tenant="")

    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            TenantQuota(tenant="a", max_gpus=0)
        with pytest.raises(ValueError):
            TenantQuota(tenant="a", max_active=-1)


class TestServiceConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            ServiceConfig(mode="hybrid")

    def test_rejects_duplicate_tenants(self):
        with pytest.raises(ValueError):
            ServiceConfig(tenants=(TenantQuota(tenant="a"), TenantQuota(tenant="a")))


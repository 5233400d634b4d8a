"""Typed request/response schemas of the scheduler service.

The submission contract follows the shape of typed cluster job APIs
(job type + replicas + resources + tenant), adapted to the Table-2
workload catalogue: a :class:`JobSubmission` names either a concrete
catalogue workload or just a job-type family (the service then draws a
template deterministically), how many replicas it wants, and which
tenant it bills to.  Everything is a plain dataclass with an exact JSON
round-trip — like :class:`~repro.experiments.spec.RunSpec`, a schema
object can cross a socket, live in a log, and be rebuilt bit-identically.

Validation happens *at the boundary*: :meth:`JobSubmission.validate`
raises :class:`SchemaValidationError` naming the offending field before
the submission touches the engine, and the engine's admission layer
raises :class:`AdmissionError` for policy rejections (unknown tenant,
oversubscribed quota).  Both are turned into ``status="rejected"``
:class:`PlacementDecision` responses by the service, never tracebacks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.utils.validation import check_positive, check_positive_int

#: Decision latency SLO statuses a submission can resolve to.
DECISION_STATUSES = ("placed", "queued", "rejected")


class SchemaValidationError(ValueError):
    """A submission failed boundary validation; ``field`` names the culprit."""

    def __init__(self, field_name: str, message: str) -> None:
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class AdmissionError(ValueError):
    """A structurally valid submission was rejected by admission policy."""


class JobType(str, enum.Enum):
    """Coarse job families a submission may request instead of a workload.

    ``CV`` / ``NLP`` map onto the Table-2 catalogue's task families;
    ``ANY`` lets the service draw from the whole catalogue.
    """

    CV = "cv"
    NLP = "nlp"
    ANY = "any"


@dataclass(frozen=True)
class JobSubmission:
    """One tenant's request to run a training job.

    Parameters
    ----------
    tenant:
        The submitting tenant (must be registered with the service).
    job_type:
        Job family used to draw a workload template when ``workload`` is
        empty.
    replicas:
        Requested data-parallel replicas.
    gpus_per_replica:
        GPUs per replica; total GPU demand is ``replicas * gpus_per_replica``.
    workload:
        Optional concrete Table-2 template name (e.g.
        ``cifar10-resnet18-20k``); overrides ``job_type``.
    name:
        Free-form client label echoed back in decisions.
    arrival_time:
        Optional explicit *virtual* arrival timestamp (trace replay);
        ``None`` lets the service assign one (now in virtual mode, the
        scaled wall clock in wall mode).
    spec:
        Optional full job-spec payload (the
        :func:`~repro.workload.replay.jobspec_to_dict` layout).  This is
        the trusted replay path: it bypasses template drawing so a
        recorded trace replays through the service bit-identically.
    """

    tenant: str
    job_type: str = JobType.ANY.value
    replicas: int = 1
    gpus_per_replica: int = 1
    workload: str = ""
    name: str = ""
    arrival_time: Optional[float] = None
    spec: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "job_type", str(self.job_type).lower())
        if self.spec is not None:
            object.__setattr__(self, "spec", dict(self.spec))

    @property
    def gpu_demand(self) -> int:
        """Total requested GPUs (``replicas * gpus_per_replica``)."""
        return int(self.replicas) * int(self.gpus_per_replica)

    # -- boundary validation ------------------------------------------------------------

    def validate(self, num_gpus: int, workload_names: Tuple[str, ...]) -> None:
        """Check every field against the service's cluster and catalogue.

        Raises :class:`SchemaValidationError` on the first violation; a
        submission that passes is safe to hand to the engine (admission
        policy — tenant existence, quotas — is checked separately).
        """
        if not isinstance(self.tenant, str) or not self.tenant.strip():
            raise SchemaValidationError("tenant", "must be a non-empty string")
        try:
            JobType(self.job_type)
        except ValueError:
            raise SchemaValidationError(
                "job_type",
                f"unknown job type {self.job_type!r}; expected one of "
                f"{[t.value for t in JobType]}",
            ) from None
        if not isinstance(self.replicas, int) or self.replicas < 1:
            raise SchemaValidationError("replicas", "must be a positive integer")
        if not isinstance(self.gpus_per_replica, int) or self.gpus_per_replica < 1:
            raise SchemaValidationError("gpus_per_replica", "must be a positive integer")
        if self.gpu_demand > num_gpus:
            raise SchemaValidationError(
                "replicas",
                f"GPU demand {self.gpu_demand} exceeds the cluster size {num_gpus}",
            )
        if self.workload and self.workload not in workload_names:
            raise SchemaValidationError(
                "workload", f"unknown workload template {self.workload!r}"
            )
        if self.arrival_time is not None and self.arrival_time < 0:
            raise SchemaValidationError("arrival_time", "must be >= 0")

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        payload: Dict[str, object] = {
            "tenant": str(self.tenant),
            "job_type": str(self.job_type),
            "replicas": int(self.replicas),
            "gpus_per_replica": int(self.gpus_per_replica),
            "workload": str(self.workload),
            "name": str(self.name),
        }
        if self.arrival_time is not None:
            payload["arrival_time"] = float(self.arrival_time)
        if self.spec is not None:
            payload["spec"] = dict(self.spec)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "JobSubmission":
        """Rebuild a :class:`JobSubmission` from :meth:`to_dict` output."""
        arrival = payload.get("arrival_time")
        return cls(
            tenant=str(payload.get("tenant", "")),
            job_type=str(payload.get("job_type", JobType.ANY.value)),
            replicas=int(payload.get("replicas", 1)),
            gpus_per_replica=int(payload.get("gpus_per_replica", 1)),
            workload=str(payload.get("workload", "")),
            name=str(payload.get("name", "")),
            arrival_time=float(arrival) if arrival is not None else None,
            spec=payload.get("spec"),
        )


@dataclass(frozen=True)
class PlacementDecision:
    """The service's answer to one submission.

    ``status`` is one of ``placed`` (GPUs assigned immediately),
    ``queued`` (admitted, waiting for capacity) or ``rejected``
    (validation / admission failure, ``reason`` says why).
    ``decision_latency_ms`` is the *wall-clock* time the scheduler took
    to decide — the quantity the service's SLOs are stated over.
    """

    submission_id: str
    job_id: str
    tenant: str
    status: str
    virtual_time: float
    decision_latency_ms: float = 0.0
    gpu_ids: Tuple[int, ...] = ()
    local_batches: Tuple[int, ...] = ()
    queue_depth: int = 0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.status not in DECISION_STATUSES:
            raise ValueError(
                f"status must be one of {DECISION_STATUSES}, got {self.status!r}"
            )
        object.__setattr__(self, "gpu_ids", tuple(int(g) for g in self.gpu_ids))
        object.__setattr__(
            self, "local_batches", tuple(int(b) for b in self.local_batches)
        )

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        return {
            "submission_id": str(self.submission_id),
            "job_id": str(self.job_id),
            "tenant": str(self.tenant),
            "status": str(self.status),
            "virtual_time": float(self.virtual_time),
            "decision_latency_ms": float(self.decision_latency_ms),
            "gpu_ids": [int(g) for g in self.gpu_ids],
            "local_batches": [int(b) for b in self.local_batches],
            "queue_depth": int(self.queue_depth),
            "reason": str(self.reason),
        }


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits of one tenant.

    ``max_gpus`` caps the tenant's *outstanding requested* GPU demand
    (demand of admitted-but-incomplete jobs); ``max_active`` caps its
    concurrent incomplete jobs.
    """

    tenant: str
    max_gpus: int = 1 << 30
    max_active: int = 1 << 30

    def __post_init__(self) -> None:
        if not self.tenant or not str(self.tenant).strip():
            raise ValueError("tenant must be a non-empty string")
        check_positive_int(self.max_gpus, "max_gpus")
        check_positive_int(self.max_active, "max_active")

@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to stand up one scheduler service.

    ``mode="virtual"`` advances simulated time only when events are
    processed — submissions drive the clock, and a replayed trace is
    bit-identical to an offline run.  ``mode="wall"`` maps wall-clock
    time onto virtual time at ``time_scale`` virtual seconds per wall
    second, so the simulator "lives" in real time.
    """

    num_gpus: int = 64
    scheduler: str = "ONES"
    seed: int = 2021
    mode: str = "virtual"
    time_scale: float = 60.0
    max_time: float = 14 * 24 * 3600.0
    max_events: int = 10_000_000
    convergence_jitter: bool = True
    tenants: Tuple[TenantQuota, ...] = field(default_factory=tuple)
    scheduler_options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive_int(self.num_gpus, "num_gpus")
        if not self.scheduler or not str(self.scheduler).strip():
            raise ValueError("scheduler must be a non-empty registry name")
        check_positive_int(self.seed, "seed")
        if self.mode not in ("virtual", "wall"):
            raise ValueError(f"mode must be 'virtual' or 'wall', got {self.mode!r}")
        check_positive(self.time_scale, "time_scale")
        check_positive(self.max_time, "max_time")
        check_positive_int(self.max_events, "max_events")
        object.__setattr__(self, "tenants", tuple(self.tenants))
        object.__setattr__(self, "scheduler_options", dict(self.scheduler_options))
        names = [quota.tenant for quota in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenants contains duplicate names")

"""Trace generation: online job arrivals over the Table-2 catalogue.

The paper generates "custom traces with typical DL tasks" and evaluates
online scheduling — jobs arrive over time and the scheduler cannot see
the future.  We model arrivals as a Poisson process (exponential
inter-arrival times with rate λ) and draw each job's workload template
uniformly from the catalogue and its requested GPU count from a skewed
distribution (most users ask for 1–2 GPUs, a few ask for 4–8), matching
the job-size mix reported in public cluster traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.jobs.job import JobSpec
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_positive_int
from repro.workload.tasks import WorkloadTemplate, build_workload_catalog, make_job_spec


@dataclass(frozen=True)
class TraceConfig:
    """Configuration of a synthetic workload trace.

    Parameters
    ----------
    num_jobs:
        Number of jobs in the trace (the paper's main run uses 50).
    arrival_rate:
        Mean job arrivals per second (λ).  The default of one job every
        30 s keeps a 64-GPU cluster busy without saturating it, similar
        in spirit to the paper's setting where queuing time is tens of
        seconds on average.
    gpu_request_choices / gpu_request_weights:
        Distribution of the user-requested job size.
    convergence_jitter:
        Whether to jitter per-job convergence speed (two jobs of the same
        template then differ slightly).
    """

    num_jobs: int = 50
    arrival_rate: float = 1.0 / 30.0
    gpu_request_choices: Tuple[int, ...] = (1, 2, 4, 8)
    gpu_request_weights: Tuple[float, ...] = (0.45, 0.30, 0.17, 0.08)
    convergence_jitter: bool = True
    convergence_patience: int = 10

    def __post_init__(self) -> None:
        check_positive_int(self.num_jobs, "num_jobs")
        check_positive(self.arrival_rate, "arrival_rate")
        if len(self.gpu_request_choices) != len(self.gpu_request_weights):
            raise ValueError("gpu_request_choices and gpu_request_weights must align")
        if any(c < 1 for c in self.gpu_request_choices):
            raise ValueError("gpu_request_choices must all be >= 1")
        total = float(sum(self.gpu_request_weights))
        if total <= 0:
            raise ValueError("gpu_request_weights must sum to a positive value")
        check_positive_int(self.convergence_patience, "convergence_patience")

    @property
    def normalized_weights(self) -> np.ndarray:
        """GPU-request weights normalised to sum to 1."""
        weights = np.asarray(self.gpu_request_weights, dtype=float)
        return weights / weights.sum()

    # -- serialization (used by declarative experiment specs) ---------------------------

    def to_dict(self) -> dict:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        return {
            "num_jobs": int(self.num_jobs),
            "arrival_rate": float(self.arrival_rate),
            "gpu_request_choices": [int(c) for c in self.gpu_request_choices],
            "gpu_request_weights": [float(w) for w in self.gpu_request_weights],
            "convergence_jitter": bool(self.convergence_jitter),
            "convergence_patience": int(self.convergence_patience),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceConfig":
        """Rebuild a :class:`TraceConfig` from :meth:`to_dict` output."""
        return cls(
            num_jobs=int(payload["num_jobs"]),
            arrival_rate=float(payload["arrival_rate"]),
            gpu_request_choices=tuple(int(c) for c in payload["gpu_request_choices"]),
            gpu_request_weights=tuple(float(w) for w in payload["gpu_request_weights"]),
            convergence_jitter=bool(payload["convergence_jitter"]),
            convergence_patience=int(payload["convergence_patience"]),
        )


class TraceGenerator:
    """Generates reproducible job traces from the Table-2 catalogue."""

    def __init__(
        self,
        config: Optional[TraceConfig] = None,
        catalog: Optional[Sequence[WorkloadTemplate]] = None,
        seed: SeedLike = None,
    ) -> None:
        self.config = config or TraceConfig()
        self.catalog: List[WorkloadTemplate] = (
            list(catalog) if catalog is not None else build_workload_catalog()
        )
        if not self.catalog:
            raise ValueError("workload catalog must not be empty")
        self._rng = as_generator(seed)

    def generate(self) -> List[JobSpec]:
        """Generate a trace of ``config.num_jobs`` jobs sorted by arrival time."""
        cfg = self.config
        inter_arrivals = self._rng.exponential(1.0 / cfg.arrival_rate, size=cfg.num_jobs)
        # The first job arrives at t = 0 so the cluster starts busy.
        arrival_times = np.concatenate([[0.0], np.cumsum(inter_arrivals)[:-1]])
        template_idx = self._rng.integers(0, len(self.catalog), size=cfg.num_jobs)
        gpu_requests = self._rng.choice(
            cfg.gpu_request_choices, size=cfg.num_jobs, p=cfg.normalized_weights
        )
        jobs: List[JobSpec] = []
        for i in range(cfg.num_jobs):
            template = self.catalog[int(template_idx[i])]
            jobs.append(
                make_job_spec(
                    template=template,
                    job_id=f"job-{i:03d}",
                    arrival_time=float(arrival_times[i]),
                    requested_gpus=int(gpu_requests[i]),
                    rng=self._rng if cfg.convergence_jitter else None,
                    convergence_patience=cfg.convergence_patience,
                )
            )
        jobs.sort(key=lambda spec: (spec.arrival_time, spec.job_id))
        return jobs

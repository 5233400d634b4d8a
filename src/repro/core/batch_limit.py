"""Dynamic batch-size limits ``R_j`` (§3.3.2, "Training Performance Control").

ONES never lets a job's global batch exceed its dynamic limit ``R_j``.
The limit evolves with the job's lifecycle:

* **Start** — on arrival the batch must fit a single GPU until a few
  warm-up steps complete.
* **Resume** — a waiting job may ask for the limit it had before being
  preempted, but every time it is rejected (left waiting by the next
  schedule) the limit is halved, which shortens its queuing time and
  prevents starvation.
* **Scale-up** — after each completed epoch a running job may double its
  limit (gradual growth avoids the loss spikes of Fig. 13).
* **Scale-down** — long-running jobs are penalised with
  ``R' = ceil(2R / ceil(σ·T_processed + 1))`` where ``σ`` is set to the
  average job arrival rate λ, which prevents the convoy effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.jobs.job import Job
from repro.utils.stats import RunningMean
from repro.utils.validation import check_non_negative, check_positive, check_positive_int


@dataclass(frozen=True)
class BatchLimitConfig:
    """Tunables of the batch-size limit policies.

    Parameters
    ----------
    min_batch:
        Absolute floor of any limit (a job can always run one sample).
    warmup_epochs:
        Epochs a job must complete before its limit may grow beyond a
        single GPU's worth.
    sigma:
        The scale-down factor σ.  ``None`` means "derive it from the
        observed average arrival rate λ" (the paper suggests σ = λ).
    sigma_damping:
        Divisor applied to the observed λ when ``sigma`` is ``None``.
        Taken literally, σ = λ collapses the limit of *every* job to its
        floor because typical epoch times already exceed the mean
        inter-arrival gap; damping makes the convoy-effect penalty bite
        only for jobs that run an order of magnitude longer than the
        arrival interval.  The ablation benchmark sweeps this factor.
    max_batch_multiplier:
        Upper bound on ``R_j`` expressed as a multiple of the job's
        submitted batch size (keeps limits from growing without bound on
        very long traces).
    """

    min_batch: int = 1
    warmup_epochs: int = 1
    sigma: Optional[float] = None
    sigma_damping: float = 10.0
    max_batch_multiplier: float = 16.0

    def __post_init__(self) -> None:
        check_positive_int(self.min_batch, "min_batch")
        check_non_negative(self.warmup_epochs, "warmup_epochs")
        if self.sigma is not None:
            check_positive(self.sigma, "sigma")
        check_positive(self.sigma_damping, "sigma_damping")
        check_positive(self.max_batch_multiplier, "max_batch_multiplier")


class BatchSizeLimiter:
    """Tracks and updates the per-job batch-size limits ``R_j``."""

    def __init__(self, config: Optional[BatchLimitConfig] = None) -> None:
        self.config = config or BatchLimitConfig()
        self._limits: Dict[str, int] = {}
        self._interarrival = RunningMean()
        self._last_arrival_time: Optional[float] = None

    # -- arrival-rate tracking (for σ = λ) ------------------------------------------------------

    def observe_arrival(self, arrival_time: float) -> None:
        """Update the arrival-rate estimate with one observed arrival."""
        if self._last_arrival_time is not None:
            gap = max(0.0, arrival_time - self._last_arrival_time)
            if gap > 0:
                self._interarrival.update(gap)
        self._last_arrival_time = arrival_time

    @property
    def arrival_rate(self) -> float:
        """Estimated average arrival rate λ (jobs/second)."""
        if self._interarrival.count == 0 or self._interarrival.mean <= 0:
            return 0.0
        return 1.0 / self._interarrival.mean

    def _sigma(self) -> float:
        if self.config.sigma is not None:
            return self.config.sigma
        return self.arrival_rate / self.config.sigma_damping

    # -- limits -----------------------------------------------------------------------------------

    def limits(self) -> Dict[str, int]:
        """Snapshot of all tracked limits."""
        return dict(self._limits)

    def forget(self, job_id: str) -> None:
        """Drop the limit of a completed job."""
        self._limits.pop(job_id, None)

    def _max_limit(self, job: Job) -> int:
        cap = int(self.config.max_batch_multiplier * job.spec.base_batch)
        return max(self.config.min_batch, min(cap, job.dataset_size))

    def _floor_limit(self, job: Job) -> int:
        """Lowest limit policies may push a job to: the user-tuned batch.

        The paper's scale-down formula, applied literally every epoch,
        would drive ``R_j`` of any job longer than the mean inter-arrival
        time towards 1 sample, starving the job of throughput.  We keep
        the formula (it claws back the *elastic* headroom of long jobs)
        but never squeeze a job below the batch it was submitted with —
        a deviation recorded in DESIGN.md.
        """
        floor = min(job.spec.base_batch, job.spec.max_local_batch)
        return max(self.config.min_batch, min(floor, job.dataset_size))

    def _clip(self, job: Job, value: float, enforce_floor: bool = False) -> int:
        low = self._floor_limit(job) if enforce_floor else self.config.min_batch
        return int(min(max(low, math.ceil(value)), self._max_limit(job)))

    # -- the four policies ---------------------------------------------------------------------------

    def on_job_arrival(self, job: Job) -> int:
        """Start policy: limit to what a single GPU can hold."""
        self.observe_arrival(job.arrival_time)
        start = min(job.spec.base_batch, job.spec.max_local_batch)
        self._limits[job.job_id] = self._clip(job, start)
        return self._limits[job.job_id]

    def on_epoch_end(self, job: Job, executed_time: float, contended: bool = True) -> int:
        """Scale-up + scale-down policy evaluated after every epoch.

        Short jobs simply double their limit every epoch (Scale-up).
        Once a job's executed time exceeds the penalty horizon ``1/σ``
        the Scale-down rule ``R' = ceil(2R / ceil(σ·T_processed + 1))``
        takes over, progressively clawing the doubling back and — for
        very long jobs — shrinking the limit towards its floor, which
        prevents the convoy effect.

        ``contended`` says whether any job is currently waiting for
        resources.  The convoy effect only exists when short jobs queue
        behind long ones, so on an uncontended cluster the scale-down
        penalty is skipped and long jobs are free to soak up idle GPUs —
        exactly the behaviour the paper credits for ONES's large gains on
        slow jobs.
        """
        check_non_negative(executed_time, "executed_time")
        if job.job_id not in self._limits:
            self.on_job_arrival(job)
        if job.epochs_completed < self.config.warmup_epochs:
            return self._limits[job.job_id]
        current = self._limits[job.job_id]
        sigma_t = self._sigma() * executed_time
        if sigma_t <= 1.0 or not contended:
            # Scale-up: the job is still "short" (or nobody is waiting).
            new_limit = 2.0 * current
        else:
            # Scale-down: penalise jobs that outlive the penalty horizon.
            denominator = max(1, int(math.ceil(sigma_t + 1.0)))
            new_limit = math.ceil(2.0 * current / denominator)
        self._limits[job.job_id] = self._clip(job, new_limit, enforce_floor=True)
        return self._limits[job.job_id]

    def on_schedule_rejection(self, job: Job) -> int:
        """Resume policy: halve the limit each time a waiting job stays waiting."""
        if job.job_id not in self._limits:
            self.on_job_arrival(job)
        current = self._limits[job.job_id]
        self._limits[job.job_id] = self._clip(job, current / 2.0, enforce_floor=True)
        return self._limits[job.job_id]

    def on_preemption(self, job: Job) -> int:
        """A preempted job keeps (at most) the limit it had before preemption."""
        if job.job_id not in self._limits:
            self.on_job_arrival(job)
        return self._limits[job.job_id]

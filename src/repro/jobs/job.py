"""Job specifications and runtime state.

A :class:`JobSpec` is the immutable description a user submits: which
model, which dataset (and its size), the batch size / learning rate the
user tuned, how many GPUs they asked for (the quantity fixed-size
schedulers such as Tiresias honour) and when the job arrives.

A :class:`Job` is the simulator's runtime view of that submission: how
many samples it has processed, its effective learning progress, its loss
and validation accuracy, its current resource configuration, and the
bookkeeping needed to compute completion / execution / queuing times
(the metrics of Fig. 15).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jobs.convergence import ConvergenceProfile
from repro.jobs.model_zoo import ModelSpec
from repro.utils.stats import RunningMean
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_positive_int,
)


class JobStatus(enum.Enum):
    """Lifecycle states of a job."""

    PENDING = "pending"      # submitted, waiting for its first/next allocation
    RUNNING = "running"      # at least one worker is active
    COMPLETED = "completed"  # converged; resources released


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of a submitted training job."""

    job_id: str
    task: str
    model: ModelSpec
    dataset: str
    dataset_size: int
    num_classes: int
    convergence: ConvergenceProfile
    base_batch: int
    base_lr: float
    requested_gpus: int = 1
    arrival_time: float = 0.0
    convergence_patience: int = 10

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be a non-empty string")
        check_positive_int(self.dataset_size, "dataset_size")
        check_positive_int(self.num_classes, "num_classes")
        check_positive_int(self.base_batch, "base_batch")
        check_positive(self.base_lr, "base_lr")
        check_positive_int(self.requested_gpus, "requested_gpus")
        check_non_negative(self.arrival_time, "arrival_time")
        check_positive_int(self.convergence_patience, "convergence_patience")
        if self.base_batch > self.dataset_size:
            raise ValueError(
                f"base_batch ({self.base_batch}) cannot exceed dataset_size "
                f"({self.dataset_size})"
            )

    @property
    def max_local_batch(self) -> int:
        """Largest per-GPU batch that fits on the device for this model."""
        return self.model.max_local_batch

@dataclass(frozen=True)
class EpochRecord:
    """Snapshot logged by a worker at the end of each training epoch.

    The scheduler architecture (§3.1) says "each worker uploads its
    training progress (e.g. number of processed samples, training loss and
    validation accuracy) to the central scheduler at the end of each
    training epoch"; this record is exactly that upload.
    """

    epoch_index: int
    time: float
    samples_processed: float
    loss: float
    accuracy: float
    global_batch: int
    num_gpus: int
    duration: float


@dataclass
class RunInterval:
    """A contiguous stretch of time during which the job held GPUs."""

    start: float
    end: Optional[float] = None
    num_gpus: int = 0

    def duration(self, now: Optional[float] = None) -> float:
        """Length of the interval (up to ``now`` if still open)."""
        end = self.end if self.end is not None else now
        if end is None:
            raise ValueError("open interval requires `now` to compute a duration")
        return max(0.0, end - self.start)


class Job:
    """Runtime state of a training job inside the simulator."""

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.status: JobStatus = JobStatus.PENDING
        # learning progress
        self.samples_processed: float = 0.0
        self.effective_epochs: float = 0.0
        self.epochs_completed: int = 0
        self.consecutive_target_epochs: int = 0
        self._loss_spike: float = 0.0
        # resources
        self.gpu_ids: Tuple[int, ...] = ()
        self.local_batches: Tuple[int, ...] = ()
        self.generation: int = 0
        self.lr_scaled: bool = True
        # accounting
        self.first_start_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self.run_intervals: List[RunInterval] = []
        self.attained_service: float = 0.0  # GPU-seconds
        self.reconfig_count: int = 0
        self.reconfig_overhead_total: float = 0.0
        # telemetry
        self.throughput_profile = RunningMean()
        self.epoch_records: List[EpochRecord] = []
        self.batch_history: List[Tuple[float, int]] = []
        self._epoch_start_time: Optional[float] = None
        self._epoch_start_samples: float = 0.0

    # -- identity / convenience -----------------------------------------------------

    @property
    def job_id(self) -> str:
        """Identifier of the job (mirrors the spec)."""
        return self.spec.job_id

    @property
    def arrival_time(self) -> float:
        """Submission time of the job."""
        return self.spec.arrival_time

    @property
    def dataset_size(self) -> int:
        """Samples per epoch (``‖D‖`` in the paper's notation)."""
        return self.spec.dataset_size

    @property
    def num_gpus(self) -> int:
        """Number of GPUs currently allocated (``c_j``)."""
        return len(self.gpu_ids)

    @property
    def global_batch(self) -> int:
        """Current global batch size (``B_j``); 0 when not running."""
        return int(sum(self.local_batches))

    @property
    def is_running(self) -> bool:
        """Whether the job currently holds at least one GPU."""
        return self.status is JobStatus.RUNNING

    @property
    def is_completed(self) -> bool:
        """Whether the job has converged and released its resources."""
        return self.status is JobStatus.COMPLETED

    # -- learning-progress quantities exposed to schedulers ----------------------------

    @property
    def initial_loss(self) -> float:
        """Loss before any training (a predictor feature, footnote 1)."""
        return self.spec.convergence.initial_loss

    @property
    def current_loss(self) -> float:
        """Training loss at the current progress point."""
        return self.spec.convergence.loss_at(self.effective_epochs, self._loss_spike)

    @property
    def current_accuracy(self) -> float:
        """Validation accuracy at the current progress point."""
        return self.spec.convergence.accuracy_at(self.effective_epochs)

    @property
    def loss_improvement_ratio(self) -> float:
        """``r_loss = 1 - current loss / initial loss`` (a predictor feature)."""
        return 1.0 - self.current_loss / self.initial_loss

    @property
    def measured_throughput(self) -> float:
        """Mean of the job's online throughput measurements (``X_j``)."""
        return self.throughput_profile.mean

    # -- time accounting -----------------------------------------------------------------

    def executed_time(self, now: Optional[float] = None) -> float:
        """Total wall-clock time the job has held GPUs (``T_processed``)."""
        total = 0.0
        for interval in self.run_intervals:
            if interval.end is None:
                if now is None:
                    raise ValueError("job is running; pass `now` to executed_time()")
                total += interval.duration(now)
            else:
                total += interval.duration()
        return total

    def completion_metrics(self) -> Dict[str, float]:
        """JCT / execution / queuing breakdown for a completed job."""
        if self.completion_time is None:
            raise RuntimeError(f"job {self.job_id} has not completed")
        jct = self.completion_time - self.arrival_time
        exec_time = self.executed_time()
        return {
            "jct": jct,
            "execution_time": exec_time,
            "queuing_time": max(0.0, jct - exec_time),
            "attained_service": self.attained_service,
            "epochs": float(self.epochs_completed),
            "reconfigurations": float(self.reconfig_count),
            "reconfig_overhead": self.reconfig_overhead_total,
        }

    # -- resource transitions -----------------------------------------------------------

    def start_running(
        self,
        now: float,
        gpu_ids: Sequence[int],
        local_batches: Sequence[int],
        lr_scaled: bool = True,
    ) -> None:
        """Begin (or resume) execution with the given worker configuration."""
        if self.is_completed:
            raise RuntimeError(f"job {self.job_id} already completed")
        if len(gpu_ids) == 0 or sum(local_batches) <= 0:
            raise ValueError("a running job needs at least one worker with batch >= 1")
        if len(gpu_ids) != len(local_batches):
            raise ValueError("gpu_ids and local_batches must align")
        old_batch = self.global_batch
        self.gpu_ids = tuple(int(g) for g in gpu_ids)
        self.local_batches = tuple(int(b) for b in local_batches)
        self.lr_scaled = lr_scaled
        self.generation += 1
        if self.status is not JobStatus.RUNNING:
            self.status = JobStatus.RUNNING
            self.run_intervals.append(RunInterval(start=now, num_gpus=self.num_gpus))
            if self.first_start_time is None:
                self.first_start_time = now
        else:
            # Re-configuration while running: close and reopen the interval so
            # attained service is charged at the correct GPU count.
            self._close_interval(now)
            self.run_intervals.append(RunInterval(start=now, num_gpus=self.num_gpus))
        if old_batch > 0 and self.global_batch != old_batch:
            self.apply_batch_change(old_batch, self.global_batch)
        if self._epoch_start_time is None:
            self._epoch_start_time = now
            self._epoch_start_samples = self.samples_processed
        self.batch_history.append((now, self.global_batch))

    def stop_running(self, now: float) -> None:
        """Release all workers (preemption or completion)."""
        if self.status is not JobStatus.RUNNING:
            return
        self._close_interval(now)
        self.gpu_ids = ()
        self.local_batches = ()
        self.generation += 1
        self.status = JobStatus.PENDING
        self._epoch_start_time = None

    def _close_interval(self, now: float) -> None:
        if self.run_intervals and self.run_intervals[-1].end is None:
            interval = self.run_intervals[-1]
            interval.end = now
            self.attained_service += interval.duration() * interval.num_gpus

    # -- progress -----------------------------------------------------------------------

    def apply_batch_change(self, old_batch: int, new_batch: int) -> float:
        """Account for a batch-size change; returns the injected loss spike."""
        spike = self.spec.convergence.abrupt_scaling_spike(old_batch, new_batch)
        if spike > 0:
            self._loss_spike += spike
            self.effective_epochs = max(
                0.0,
                self.effective_epochs - self.spec.convergence.spike_setback_epochs(spike),
            )
        return spike

    def advance(self, delta_samples: float, duration: float) -> None:
        """Process ``delta_samples`` over ``duration`` seconds of training."""
        check_non_negative(delta_samples, "delta_samples")
        check_non_negative(duration, "duration")
        if not self.is_running:
            raise RuntimeError(f"cannot advance job {self.job_id}: it is not running")
        if delta_samples == 0:
            return
        batch = max(1, self.global_batch)
        epoch_fraction = delta_samples / self.dataset_size
        gain = self.spec.convergence.epoch_progress(batch, self.lr_scaled)
        self.samples_processed += delta_samples
        self.effective_epochs += epoch_fraction * gain
        # Loss spikes decay as training proceeds.
        self._loss_spike *= math.exp(
            -epoch_fraction / self.spec.convergence.spike_recovery_epochs
        )
        if duration > 0:
            self.throughput_profile.update(delta_samples / duration)

    def complete_epoch(self, now: float) -> EpochRecord:
        """Record the end of a training epoch and update the stop criterion."""
        self.epochs_completed += 1
        duration = 0.0
        if self._epoch_start_time is not None:
            duration = max(0.0, now - self._epoch_start_time)
        record = EpochRecord(
            epoch_index=self.epochs_completed,
            time=now,
            samples_processed=self.samples_processed,
            loss=self.current_loss,
            accuracy=self.current_accuracy,
            global_batch=self.global_batch,
            num_gpus=self.num_gpus,
            duration=duration,
        )
        self.epoch_records.append(record)
        if record.accuracy >= self.spec.convergence.target_accuracy:
            self.consecutive_target_epochs += 1
        else:
            self.consecutive_target_epochs = 0
        self._epoch_start_time = now
        self._epoch_start_samples = self.samples_processed
        return record

    @property
    def is_converged(self) -> bool:
        """True once the stop criterion of §4.1 is satisfied."""
        return self.consecutive_target_epochs >= self.spec.convergence_patience

    def mark_completed(self, now: float) -> None:
        """Transition to COMPLETED and release resources."""
        if self.is_completed:
            return
        self._close_interval(now)
        self.gpu_ids = ()
        self.local_batches = ()
        self.status = JobStatus.COMPLETED
        self.completion_time = now
        self.generation += 1

    def record_reconfiguration(self, overhead: float) -> None:
        """Account one re-configuration and its overhead (seconds)."""
        check_non_negative(overhead, "overhead")
        self.reconfig_count += 1
        self.reconfig_overhead_total += overhead

    # -- progress fraction used by the predictor ------------------------------------------

    def samples_into_current_epoch(self) -> float:
        """Samples processed since the last epoch boundary."""
        return self.samples_processed - self._epoch_start_samples

    def processed_epochs(self) -> float:
        """``Y_processed / ‖D‖`` — fractional epochs processed so far."""
        return self.samples_processed / self.dataset_size

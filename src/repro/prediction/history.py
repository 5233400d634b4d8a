"""Bounded training-log history used to fit the progress predictor.

§3.2.1: *"we maintain a limited size of training dataset where the data
points are uniformly sampled from training logs of completed jobs.  By
doing so, we can control a reasonable training time and prevent
overfitting."*

Each completed job contributes one example per logged epoch: the feature
vector observed at that epoch paired with the number of epochs the job
still needed after that point (the quantity ``β`` approximates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.jobs.job import Job
from repro.prediction.features import NUM_FEATURES, feature_vector
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class TrainingExample:
    """One supervised example: features at some epoch → epochs remaining."""

    features: Tuple[float, ...]
    epochs_remaining: float
    job_id: str = ""

    def __post_init__(self) -> None:
        if len(self.features) != NUM_FEATURES:
            raise ValueError(
                f"expected {NUM_FEATURES} features, got {len(self.features)}"
            )
        if self.epochs_remaining < 0:
            raise ValueError("epochs_remaining must be >= 0")


def examples_from_job(job: Job) -> List[TrainingExample]:
    """Turn a *completed* job's epoch log into training examples.

    For the record written at epoch ``k`` (out of ``E`` total epochs) the
    label is ``E - k`` — the epochs the job still had to run at that point.
    """
    if not job.is_completed:
        raise ValueError(f"job {job.job_id} has not completed; cannot harvest its log")
    total_epochs = job.epochs_completed
    examples: List[TrainingExample] = []
    for record in job.epoch_records:
        feats = feature_vector(
            dataset_size=job.dataset_size,
            initial_loss=job.initial_loss,
            samples_processed=record.samples_processed,
            loss_improvement_ratio=1.0 - record.loss / job.initial_loss,
            accuracy=record.accuracy,
        )
        examples.append(
            TrainingExample(
                features=tuple(float(v) for v in feats),
                epochs_remaining=float(max(0, total_epochs - record.epoch_index)),
                job_id=job.job_id,
            )
        )
    return examples


class HistoryStore:
    """A bounded pool of :class:`TrainingExample` objects.

    When the pool exceeds ``max_size`` it is thinned by uniform sampling
    (without replacement) so old and new jobs stay represented and fitting
    cost stays bounded.
    """

    def __init__(self, max_size: int = 512, seed: SeedLike = None) -> None:
        check_positive_int(max_size, "max_size")
        self.max_size = int(max_size)
        self._rng = as_generator(seed)
        self._examples: List[TrainingExample] = []
        self._completed_jobs: int = 0

    def __len__(self) -> int:
        return len(self._examples)

    @property
    def completed_jobs(self) -> int:
        """Number of completed jobs folded into the store."""
        return self._completed_jobs

    @property
    def examples(self) -> Sequence[TrainingExample]:
        """Read-only view of the stored examples."""
        return tuple(self._examples)

    def add_examples(self, examples: Sequence[TrainingExample]) -> None:
        """Add pre-built examples and re-thin if the pool overflows."""
        self._examples.extend(examples)
        self._thin()

    def add_completed_job(self, job: Job) -> int:
        """Harvest a completed job's log; returns the number of examples added."""
        examples = examples_from_job(job)
        self._completed_jobs += 1
        self.add_examples(examples)
        return len(examples)

    def _thin(self) -> None:
        if len(self._examples) <= self.max_size:
            return
        keep = self._rng.choice(
            len(self._examples), size=self.max_size, replace=False
        )
        keep.sort()
        self._examples = [self._examples[int(i)] for i in keep]

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the pool as ``(X, y)`` numpy arrays for regression."""
        if not self._examples:
            return (
                np.empty((0, NUM_FEATURES), dtype=float),
                np.empty((0,), dtype=float),
            )
        X = np.asarray([e.features for e in self._examples], dtype=float)
        y = np.asarray([e.epochs_remaining for e in self._examples], dtype=float)
        return X, y

    def clear(self) -> None:
        """Drop everything (used between independent experiments)."""
        self._examples.clear()
        self._completed_jobs = 0

"""Feature extraction for the progress predictor.

Footnote 1 of the paper lists the input features of the predictor:

``x = { ‖D‖, L_initial, Y_processed, r_loss, A }``

where ``‖D‖`` is the epoch size (samples per epoch), ``L_initial`` the
loss before training, ``Y_processed`` the samples processed so far,
``r_loss = 1 - current loss / initial loss`` the loss-improvement ratio,
and ``A`` the current validation accuracy.  All of these are observable
online from the per-epoch progress uploads.

Sizes span several orders of magnitude, so ``‖D‖`` and ``Y_processed``
enter in log space and everything is standardised by a
:class:`FeatureScaler` before regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.jobs.job import Job

#: Names of the predictor features, in the order produced by the extractors.
FEATURE_NAMES = (
    "log_dataset_size",
    "initial_loss",
    "log_samples_processed",
    "loss_improvement_ratio",
    "accuracy",
)

NUM_FEATURES = len(FEATURE_NAMES)


def feature_vector(
    dataset_size: float,
    initial_loss: float,
    samples_processed: float,
    loss_improvement_ratio: float,
    accuracy: float,
) -> np.ndarray:
    """Assemble a raw feature vector from observable quantities."""
    return np.array(
        [
            np.log1p(max(0.0, float(dataset_size))),
            float(initial_loss),
            np.log1p(max(0.0, float(samples_processed))),
            float(np.clip(loss_improvement_ratio, -1.0, 1.0)),
            float(np.clip(accuracy, 0.0, 1.0)),
        ],
        dtype=float,
    )


def job_features(job: Job) -> np.ndarray:
    """Extract the predictor features from a live :class:`Job`."""
    return feature_vector(
        dataset_size=job.dataset_size,
        initial_loss=job.initial_loss,
        samples_processed=job.samples_processed,
        loss_improvement_ratio=job.loss_improvement_ratio,
        accuracy=job.current_accuracy,
    )


@dataclass
class FeatureScaler:
    """Standardise features to zero mean / unit variance.

    Constant features keep a unit scale so they pass through unchanged
    (avoids division by ~0 for e.g. a trace where every job has the same
    dataset size).
    """

    mean_: Optional[np.ndarray] = field(default=None, repr=False)
    scale_: Optional[np.ndarray] = field(default=None, repr=False)

    def fit(self, X: np.ndarray) -> "FeatureScaler":
        """Learn per-feature mean and scale from the rows of ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[0] == 0:
            raise ValueError("cannot fit a FeatureScaler on an empty matrix")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned standardisation (row-wise)."""
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("FeatureScaler.transform called before fit")
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        X = np.atleast_2d(X)
        out = (X - self.mean_) / self.scale_
        return out[0] if single else out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit on ``X`` and return its transformation."""
        return self.fit(X).transform(X)

"""The online progress predictor (Eq. 6–7, Fig. 6).

For every job ``j`` the predictor produces a Beta distribution over its
training progress

``ρ_j ~ Be(α_j, β_j)``  with  ``α_j = Y_processed / ‖D‖``  and
``β_j = max(f(x_j), 1)``

where ``f`` is a regression model (Gaussian-process or Bayesian linear)
over the observable features of footnote 1, re-fitted every time a job
completes.  From a progress value ρ the remaining workload follows
Eq. 7: ``Y = Y_processed (1/ρ − 1)``.

A scheduling decision needs ``β_j`` for every active job at once, so
:meth:`ProgressPredictor.progress_distributions` stacks their feature
rows, standardises them in one :meth:`FeatureScaler.transform` and asks
the model for all predictive means in one ``predict`` call.  The
one-job query :meth:`~ProgressPredictor.progress_distribution` is a
one-row batch of the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Literal, Optional, Sequence

import numpy as np

from repro.jobs.job import Job
from repro.prediction.beta import BetaDistribution
from repro.prediction.blr import BayesianLinearRegression
from repro.prediction.features import FeatureScaler, job_features
from repro.prediction.gpr import FitHealth, GaussianProcessRegression
from repro.prediction.history import HistoryStore
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class PredictorConfig:
    """Configuration of the online progress predictor.

    Parameters
    ----------
    backend:
        ``"gpr"`` (the paper's footnote-1 choice) or ``"blr"`` (the
        literal linear model of Eq. 6); the ablation bench compares them.
    history_size:
        Bound on the training-log pool (§3.2.1 keeps it "limited").
    prior_epochs_remaining:
        Epochs-to-process assumed before any job has completed (cold
        start) or for a job with no measurable progress yet.
    min_completed_jobs_to_fit:
        Do not fit a regression until this many jobs have completed;
        from then on every completion refits it from scratch (§3.2.1:
        "each time when a job is completed").
    """

    backend: Literal["gpr", "blr"] = "gpr"
    history_size: int = 256
    prior_epochs_remaining: float = 15.0
    min_completed_jobs_to_fit: int = 2

    def __post_init__(self) -> None:
        if self.backend not in ("gpr", "blr"):
            raise ValueError(f"backend must be 'gpr' or 'blr', got {self.backend!r}")
        check_positive_int(self.history_size, "history_size")
        check_positive(self.prior_epochs_remaining, "prior_epochs_remaining")
        check_positive_int(self.min_completed_jobs_to_fit, "min_completed_jobs_to_fit")


class ProgressPredictor:
    """Online predictor of per-job progress distributions."""

    def __init__(self, config: Optional[PredictorConfig] = None, seed: SeedLike = None) -> None:
        self.config = config or PredictorConfig()
        self._rng = as_generator(seed)
        self.history = HistoryStore(max_size=self.config.history_size, seed=self._rng)
        self._scaler = FeatureScaler()
        self._model = self._make_model()
        self._fitted = False
        self.fit_count = 0
        #: Cumulative wall-clock spent in refits (read by profiling:
        #: ``ONESScheduler.profile_phases``).
        self.refit_seconds = 0.0
        #: Numerical health of every GPR evidence optimisation so far
        #: (exported by ``ONESScheduler.metrics_registry``).
        self.gpr_health = FitHealth()

    def _make_model(self):
        if self.config.backend == "gpr":
            return GaussianProcessRegression(random_state=int(self._rng.integers(2**31)))
        return BayesianLinearRegression()

    # -- online updates -----------------------------------------------------------------

    def observe_completion(self, job: Job) -> None:
        """Fold a completed job's training log into the history and re-fit.

        Every completion refits the regression once
        ``min_completed_jobs_to_fit`` jobs have completed.
        """
        self.history.add_completed_job(job)
        if self.history.completed_jobs >= self.config.min_completed_jobs_to_fit:
            self.refit()

    def refit(self) -> bool:
        """Re-fit the regression on the current history; returns success."""
        X, y = self.history.as_arrays()
        if X.shape[0] < 2:
            return False
        start = perf_counter()
        X_std = self._scaler.fit_transform(X)
        self._model = self._make_model()
        self._model.fit(X_std, y)
        self.refit_seconds += perf_counter() - start
        health = getattr(self._model, "health", None)
        if health is not None:
            self.gpr_health.add(health)
        self._fitted = True
        self.fit_count += 1
        return True

    def _means_remaining(self, jobs: Sequence[Job]) -> List[float]:
        """Predictive means of the epochs each job still needs, in one batch.

        One ``transform`` and one mean-only ``predict`` for the stacked
        feature rows; a one-job batch is exactly the arithmetic of a
        single-row ``predict``.  Before any fit every job gets the prior.
        """
        if not self._fitted:
            return [float(self.config.prior_epochs_remaining)] * len(jobs)
        X = self._scaler.transform(np.array([job_features(job) for job in jobs]))
        return [max(float(mean), 0.0) for mean in self._model.predict(X)]

    def progress_distribution(self, job: Job) -> BetaDistribution:
        """The Beta distribution of the job's training progress (Eq. 6)."""
        return self.progress_distributions({job.job_id: job})[job.job_id]

    def progress_distributions(self, jobs: Dict[str, Job]) -> Dict[str, BetaDistribution]:
        """Progress distributions (Eq. 6) for jobs keyed by job id.

        ``α_j`` comes from each job's processed epochs and ``β_j`` from
        one batched prediction over all of them (:meth:`_means_remaining`).
        """
        if not jobs:
            return {}
        means = self._means_remaining(list(jobs.values()))
        return {
            job_id: BetaDistribution(
                alpha=max(1.0, job.processed_epochs()), beta=max(1.0, mean)
            )
            for (job_id, job), mean in zip(jobs.items(), means)
        }

    # -- remaining workload / time (Eq. 5 and 7) ----------------------------------------------

    def remaining_workload(self, job: Job, progress: Optional[float] = None) -> float:
        """Estimated remaining samples ``Y_j`` (Eq. 7).

        If ``progress`` is omitted the mean of the progress distribution
        is used; a caller that already holds the job's distribution
        passes its mean and saves the prediction.  Jobs that have not
        processed a single sample yet fall back to
        ``prior_epochs_remaining`` full epochs, so that placement
        decisions still see a non-zero cost for brand-new jobs.
        """
        if progress is None:
            progress = self.progress_distribution(job).mean
        rho = float(progress)
        rho = float(np.clip(rho, 1e-9, 1.0 - 1e-9))
        processed = job.samples_processed
        if processed <= 0:
            return float(self.config.prior_epochs_remaining * job.dataset_size)
        return float(processed * (1.0 / rho - 1.0))

    # -- introspection for Fig. 6 ------------------------------------------------------------

    def prediction_curve(
        self, job: Job, sample_points: int = 50, ci_level: float = 0.9
    ) -> Dict[str, np.ndarray]:
        """Predicted progress (mean and CI) as a function of processed samples.

        Reproduces the structure of Fig. 6: for a grid of "samples
        processed" values we report the mean of the predictive Beta
        distribution and its central credible interval.
        """
        check_positive_int(sample_points, "sample_points")
        grid = np.linspace(0.0, max(job.samples_processed, job.dataset_size), sample_points)
        means, lows, highs = [], [], []
        for processed in grid:
            alpha = max(1.0, processed / job.dataset_size)
            if self._fitted:
                # Evaluate the regression at the hypothetical progress point.
                from repro.prediction.features import feature_vector

                x = feature_vector(
                    dataset_size=job.dataset_size,
                    initial_loss=job.initial_loss,
                    samples_processed=processed,
                    loss_improvement_ratio=job.loss_improvement_ratio,
                    accuracy=job.current_accuracy,
                )
                x = np.atleast_2d(self._scaler.transform(x))
                mean_remaining = float(self._model.predict(x)[0])
                beta = max(1.0, mean_remaining)
            else:
                beta = max(1.0, self.config.prior_epochs_remaining)
            dist = BetaDistribution(alpha=alpha, beta=beta)
            low, high = dist.confidence_interval(ci_level)
            means.append(dist.mean)
            lows.append(low)
            highs.append(high)
        return {
            "samples_processed": grid,
            "mean": np.asarray(means),
            "ci_low": np.asarray(lows),
            "ci_high": np.asarray(highs),
        }

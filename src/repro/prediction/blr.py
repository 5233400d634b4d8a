"""Bayesian linear regression for the epochs-to-process predictor.

Eq. 6 of the paper writes the predicted shape parameter literally as
``β = max(Ax + b, 1)`` — a linear model in the features — fitted by
*"maximizing the log marginal likelihood"*.  Bayesian linear regression
with the evidence approximation does exactly that: the weight-prior
precision ``α`` and noise precision ``β_noise`` are chosen to maximise
the marginal likelihood of the data, and predictions come with a
predictive variance.

This is the lightweight alternative backend to the Gaussian-process
regressor in :mod:`repro.prediction.gpr`; the ablation benchmark
compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.utils.validation import check_positive, check_positive_int


@dataclass
class BayesianLinearRegression:
    """Evidence-maximising Bayesian linear regression.

    Parameters
    ----------
    max_evidence_iterations:
        Iterations of the fixed-point updates for the prior precision
        ``alpha`` and the noise precision ``beta``.
    tolerance:
        Convergence threshold on the change of the hyper-parameters.
    """

    max_evidence_iterations: int = 100
    tolerance: float = 1e-5
    alpha_: float = field(default=1.0, init=False)
    beta_: float = field(default=1.0, init=False)
    mean_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    covariance_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    log_marginal_likelihood_: float = field(default=float("-inf"), init=False)

    def __post_init__(self) -> None:
        check_positive_int(self.max_evidence_iterations, "max_evidence_iterations")
        check_positive(self.tolerance, "tolerance")

    # -- fitting --------------------------------------------------------------------

    @staticmethod
    def _design(X: np.ndarray) -> np.ndarray:
        """Prepend a bias column to the feature matrix."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.hstack([np.ones((X.shape[0], 1)), X])

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BayesianLinearRegression":
        """Fit to ``(X, y)`` by maximising the log marginal likelihood."""
        Phi = self._design(X)
        y = np.asarray(y, dtype=float).ravel()
        if Phi.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {Phi.shape[0]} rows but y has {y.shape[0]} targets"
            )
        if Phi.shape[0] == 0:
            raise ValueError("cannot fit BayesianLinearRegression on no data")
        n, d = Phi.shape
        eigvals = np.linalg.eigvalsh(Phi.T @ Phi)
        alpha, beta = self.alpha_, self.beta_
        mean = np.zeros(d)
        cov = np.eye(d)
        for _ in range(self.max_evidence_iterations):
            # Posterior over the weights given current hyper-parameters.
            precision = alpha * np.eye(d) + beta * Phi.T @ Phi
            cov = np.linalg.inv(precision)
            mean = beta * cov @ Phi.T @ y
            # Evidence (MacKay) fixed-point updates.
            lam = beta * eigvals
            gamma = float(np.sum(lam / (lam + alpha)))
            new_alpha = gamma / max(float(mean @ mean), 1e-12)
            residual = y - Phi @ mean
            denom = max(n - gamma, 1e-12)
            new_beta = denom / max(float(residual @ residual), 1e-12)
            if abs(new_alpha - alpha) < self.tolerance and abs(new_beta - beta) < self.tolerance:
                alpha, beta = new_alpha, new_beta
                break
            alpha, beta = new_alpha, new_beta
        self.alpha_, self.beta_ = float(alpha), float(beta)
        self.mean_, self.covariance_ = mean, cov
        self.log_marginal_likelihood_ = self._log_marginal_likelihood(Phi, y)
        return self

    def _log_marginal_likelihood(self, Phi: np.ndarray, y: np.ndarray) -> float:
        n, d = Phi.shape
        alpha, beta = self.alpha_, self.beta_
        precision = alpha * np.eye(d) + beta * Phi.T @ Phi
        mean = self.mean_
        residual = y - Phi @ mean
        e_mn = 0.5 * beta * float(residual @ residual) + 0.5 * alpha * float(mean @ mean)
        sign, logdet = np.linalg.slogdet(precision)
        if sign <= 0:
            return float("-inf")
        return float(
            0.5 * d * np.log(alpha)
            + 0.5 * n * np.log(beta)
            - e_mn
            - 0.5 * logdet
            - 0.5 * n * np.log(2.0 * np.pi)
        )

    # -- prediction -----------------------------------------------------------------------

    def predict(
        self, X: np.ndarray, return_std: bool = False
    ) -> np.ndarray | Tuple[np.ndarray, np.ndarray]:
        """Predictive mean (and optionally standard deviation) at ``X``."""
        if self.mean_ is None or self.covariance_ is None:
            raise RuntimeError("model is not fitted")
        Phi = self._design(X)
        mean = Phi @ self.mean_
        if not return_std:
            return mean
        var = 1.0 / self.beta_ + np.einsum("ij,jk,ik->i", Phi, self.covariance_, Phi)
        return mean, np.sqrt(np.maximum(var, 1e-12))

    def predict_one(self, x: np.ndarray) -> Tuple[float, float]:
        """Predict mean and std for a single feature vector."""
        mean, std = self.predict(np.atleast_2d(x), return_std=True)
        return float(mean[0]), float(std[0])

"""Gaussian-process regression for the epochs-to-process predictor.

Footnote 1 of the paper calls the progress model a *GPR predictor*, and
§3.2.1 says it is trained *"by maximizing the log marginal likelihood"*
each time a job completes.  This module implements a standard GP
regressor from scratch with

* an RBF (squared-exponential) kernel with a per-dataset signal variance
  and length scale,
* a Gaussian noise term,
* hyper-parameter fitting by L-BFGS-B on the negative log marginal
  likelihood (with analytic gradients),
* predictive mean and variance via the Cholesky factorisation.

The evidence loop works from the Cholesky factor alone (Rasmussen &
Williams, *Gaussian Processes for Machine Learning*, Alg. 2.1 and
Eq. 5.9).  The pairwise squared distances are computed once per
:meth:`~GaussianProcessRegression.fit` and handed to every L-BFGS-B
evaluation; an evaluation factorises ``K = L Lᵀ`` (LAPACK ``potrf``),
gets ``α = K⁻¹y`` from two triangular solves on ``L`` (``cho_solve``)
and, for the gradient, ``K⁻¹`` from ``L`` by ``potri``.  The fitted
model keeps the factor and ``α`` of the final hyper-parameters, and its
``log_marginal_likelihood_`` comes from them without a second
factorisation.  :class:`FitHealth` counts what the optimiser would
otherwise hide: evaluations, non-positive-definite kernels (scored as
NLL ``1e25``), iterations, and fits that stopped without converging.

One-OpenBLAS rule: every factorisation and solve here goes through
``scipy.linalg`` and none through ``numpy.linalg``.  numpy and scipy
wheels bundle separate OpenBLAS builds (``libscipy_openblas64_`` and
``libscipy_openblas``), each with its own thread pool.  On a 2-vCPU
x86_64 VM (numpy 2.4.6, scipy 1.17.1, OpenBLAS 0.3.31) with the BLAS
threads left at their default, the 99 refits of a 64-GPU × 100-job
flat-ONES replay took 17–19 s with the LU-based loop this one replaced,
2.1–2.2 s with this loop, and 27–30 s with this loop but
``numpy.linalg.cholesky`` in place of LAPACK ``potrf``.  Pinned to one
thread the three took 5.1–5.7 s, 1.7–2.3 s and 1.8–2.1 s, so mixing the
two libraries costs time only when their thread pools are live.

Only numpy/scipy are used; no external ML framework is required.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

import numpy as np
from scipy import optimize
from scipy.linalg import LinAlgError, cho_solve, solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri

from repro.utils.validation import check_positive, check_positive_int


def squared_distances(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of X1 and X2."""
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    sq_dists = (
        np.sum(X1**2, axis=1)[:, None]
        + np.sum(X2**2, axis=1)[None, :]
        - 2.0 * X1 @ X2.T
    )
    return np.maximum(sq_dists, 0.0)


def rbf_from_sq_dists(
    sq_dists: np.ndarray, signal_variance: float, length_scale: float
) -> np.ndarray:
    """Squared-exponential kernel from precomputed squared distances."""
    return signal_variance * np.exp(-0.5 * sq_dists / (length_scale**2))


def rbf_kernel(
    X1: np.ndarray, X2: np.ndarray, signal_variance: float, length_scale: float
) -> np.ndarray:
    """Squared-exponential kernel matrix between the rows of X1 and X2."""
    return rbf_from_sq_dists(squared_distances(X1, X2), signal_variance, length_scale)


def _cholesky(K: np.ndarray) -> Optional[np.ndarray]:
    """Lower Cholesky factor of ``K``, or ``None`` if ``K`` is not positive definite."""
    L, info = dpotrf(K, lower=1, clean=1)
    return L if info == 0 else None


def _posterior(L: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, float]:
    """``(α, nll)`` of targets ``y`` under the kernel factor ``L`` (Alg. 2.1)."""
    alpha = cho_solve((L, True), y, check_finite=False)
    nll = (
        0.5 * float(y @ alpha)
        + float(np.sum(np.log(np.diag(L))))
        + 0.5 * y.shape[0] * np.log(2.0 * np.pi)
    )
    return alpha, float(nll)


@dataclass
class FitHealth:
    """Numerical-health counters of the evidence optimisation.

    ``nll_evaluations`` counts objective evaluations and
    ``non_pd_evaluations`` those whose kernel was not positive definite
    (scored as NLL ``1e25``).  ``optimizer_iterations`` sums L-BFGS-B
    iterations, and ``unconverged_fits`` counts fits whose optimiser
    reported failure — an aborted line search or the iteration cap —
    which otherwise look the same as converged ones.
    """

    nll_evaluations: int = 0
    non_pd_evaluations: int = 0
    optimizer_iterations: int = 0
    unconverged_fits: int = 0

    def add(self, other: "FitHealth") -> None:
        """Accumulate ``other``'s counts into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class GaussianProcessRegression:
    """GP regression with an RBF kernel and evidence-maximised hyper-parameters.

    Parameters
    ----------
    length_scale / signal_variance / noise_variance:
        Initial kernel hyper-parameters (optimised during :meth:`fit`
        unless ``optimize_hyperparameters`` is False).
    optimize_hyperparameters:
        Whether to run L-BFGS-B on the negative log marginal likelihood.
    max_training_points:
        GP fitting is O(n³); larger history pools are subsampled to this
        size (the HistoryStore already bounds the pool, this is a second
        safety net).
    normalize_y:
        Centre/scale the targets before fitting (restored at prediction).
    """

    length_scale: float = 1.0
    signal_variance: float = 1.0
    noise_variance: float = 0.1
    optimize_hyperparameters: bool = True
    max_training_points: int = 128
    max_optimizer_iterations: int = 30
    normalize_y: bool = True
    jitter: float = 1e-8
    random_state: Optional[int] = None

    X_train_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    y_train_: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _alpha: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _chol: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _y_mean: float = field(default=0.0, init=False)
    _y_scale: float = field(default=1.0, init=False)
    log_marginal_likelihood_: float = field(default=float("-inf"), init=False)
    #: Lifetime counters of this instance's evidence optimisation.
    health: FitHealth = field(default_factory=FitHealth, init=False, repr=False)
    _fit_count: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive(self.length_scale, "length_scale")
        check_positive(self.signal_variance, "signal_variance")
        check_positive(self.noise_variance, "noise_variance")
        check_positive_int(self.max_training_points, "max_training_points")
        check_positive_int(self.max_optimizer_iterations, "max_optimizer_iterations")
        check_positive(self.jitter, "jitter")

    # -- marginal likelihood --------------------------------------------------------------

    def _evidence(
        self, params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """``(nll, L, alpha, K_rbf)`` at ``params = (signal, length, noise)``.

        The single kernel build, factorisation and ``alpha`` solve that
        both the optimiser's objective and :meth:`fit`'s final posterior
        use.  Returns ``None`` when the kernel is not positive definite.
        """
        signal, length, noise = params
        K_rbf = rbf_from_sq_dists(sq_dists, signal, length)
        K = K_rbf.copy()
        K.flat[:: K.shape[0] + 1] += noise + self.jitter
        L = _cholesky(K)
        if L is None:
            return None
        alpha, nll = _posterior(L, y)
        return nll, L, alpha, K_rbf

    def _nll_terms(
        self, log_params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """One counted objective evaluation: :meth:`_evidence` in log-space.

        Shared by :meth:`_nll_value` and :meth:`_nll_and_grad`, so the
        value one returns is *structurally* the value the other does.
        """
        self.health.nll_evaluations += 1
        terms = self._evidence(np.exp(log_params), sq_dists, y)
        if terms is None:
            self.health.non_pd_evaluations += 1
        return terms

    def _nll_and_grad(
        self, log_params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """Negative log marginal likelihood and its gradient in log-space.

        ``sq_dists`` are the training points' pairwise squared distances,
        used for both the kernel and the length-scale gradient (recovering
        them from the kernel would lose every pair whose kernel value
        underflowed).  ``K⁻¹`` for the gradient comes from the factor by
        LAPACK ``potri``, which fills only the lower triangle.
        """
        terms = self._nll_terms(log_params, sq_dists, y)
        if terms is None:
            return 1e25, np.zeros(3)
        nll, L, alpha, K_rbf = terms
        K_inv, info = dpotri(L, lower=1)
        if info != 0:  # a zero pivot: K is singular after all
            self.health.non_pd_evaluations += 1
            return 1e25, np.zeros(3)
        K_inv += np.tril(K_inv, -1).T
        _, length, noise = np.exp(log_params)
        # Gradients: dNLL/dθ = -0.5 tr((αα^T - K^{-1}) dK/dθ)
        outer = np.outer(alpha, alpha) - K_inv
        dK_dsignal = K_rbf  # d/d log(signal) since K ∝ signal
        dK_dlength = K_rbf * sq_dists / (length**2)  # d/d log(length)
        grad = -0.5 * np.array(
            [
                float(np.sum(outer * dK_dsignal)),
                float(np.sum(outer * dK_dlength)),
                noise * float(np.trace(outer)),  # dK/d log(noise) = noise·I
            ]
        )
        return nll, grad

    def _nll_value(
        self, log_params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> float:
        """Negative log marginal likelihood only (no O(n³) gradient terms).

        Exactly the value :meth:`_nll_and_grad` returns (same code path)
        minus the ``K⁻¹`` computation the gradient needs.
        """
        terms = self._nll_terms(log_params, sq_dists, y)
        return 1e25 if terms is None else terms[0]

    # -- fitting --------------------------------------------------------------------------

    def _subsample_rng(self) -> np.random.Generator:
        """RNG for the training-pool subsample.

        The first fit reproduces the historical stream
        (``default_rng(random_state)``); later fits on the *same*
        instance mix the fit counter into the seed so successive refits
        see different subsamples instead of silently reusing identical
        ``rng.choice`` indices forever.
        """
        if self.random_state is None:
            return np.random.default_rng()
        if self._fit_count == 0:
            return np.random.default_rng(self.random_state)
        return np.random.default_rng((self.random_state, self._fit_count))

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegression":
        """Fit to ``(X, y)``, optimising hyper-parameters by marginal likelihood."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} targets")
        if X.shape[0] == 0:
            raise ValueError("cannot fit GaussianProcessRegression on no data")
        if X.shape[0] > self.max_training_points:
            rng = self._subsample_rng()
            keep = rng.choice(X.shape[0], size=self.max_training_points, replace=False)
            X, y = X[keep], y[keep]
        self._fit_count += 1
        if self.normalize_y:
            self._y_mean = float(np.mean(y))
            self._y_scale = float(np.std(y))
            if self._y_scale < 1e-12:
                self._y_scale = 1.0
        else:
            self._y_mean, self._y_scale = 0.0, 1.0
        y_std = (y - self._y_mean) / self._y_scale
        sq_dists = squared_distances(X, X)

        if self.optimize_hyperparameters and X.shape[0] >= 3:
            x0 = np.log([self.signal_variance, self.length_scale, self.noise_variance])
            result = optimize.minimize(
                self._nll_and_grad,
                x0,
                args=(sq_dists, y_std),
                jac=True,
                method="L-BFGS-B",
                bounds=[(-6.0, 6.0)] * 3,
                options={"maxiter": self.max_optimizer_iterations},
            )
            self.health.optimizer_iterations += int(result.nit)
            if not result.success:
                self.health.unconverged_fits += 1
            if np.all(np.isfinite(result.x)):
                self.signal_variance, self.length_scale, self.noise_variance = [
                    float(v) for v in np.exp(result.x)
                ]
        terms = self._evidence(
            np.array([self.signal_variance, self.length_scale, self.noise_variance]),
            sq_dists,
            y_std,
        )
        if terms is None:
            raise LinAlgError("kernel matrix is not positive definite")
        nll, self._chol, self._alpha, _ = terms
        self.X_train_, self.y_train_ = X, y_std
        self.log_marginal_likelihood_ = -nll
        return self

    # -- prediction ------------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether the model has been fitted."""
        return self._alpha is not None

    def predict(
        self, X: np.ndarray, return_std: bool = False
    ) -> np.ndarray | Tuple[np.ndarray, np.ndarray]:
        """Predictive mean (and optionally std) at the rows of ``X``."""
        if self._alpha is None or self.X_train_ is None or self._chol is None:
            raise RuntimeError("model is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K_star = rbf_kernel(X, self.X_train_, self.signal_variance, self.length_scale)
        mean = K_star @ self._alpha
        mean = mean * self._y_scale + self._y_mean
        if not return_std:
            return mean
        v = solve_triangular(self._chol, K_star.T, lower=True, check_finite=False)
        var = self.signal_variance + self.noise_variance - np.sum(v**2, axis=0)
        var = np.maximum(var, 1e-12) * (self._y_scale**2)
        return mean, np.sqrt(var)

    def predict_one(self, x: np.ndarray) -> Tuple[float, float]:
        """Predict mean and std for a single feature vector."""
        mean, std = self.predict(np.atleast_2d(x), return_std=True)
        return float(mean[0]), float(std[0])

    def predict_mean_one(self, x: np.ndarray) -> float:
        """Predictive mean only for a single feature vector.

        Skips the triangular solve the predictive variance needs — the
        mean is one kernel row times the cached ``alpha`` — so hot-path
        callers that never look at the uncertainty (the per-event Beta
        progress distributions) do O(n·d) work instead of O(n²).
        """
        return float(self.predict(np.atleast_2d(x))[0])

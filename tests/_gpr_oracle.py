"""The LU-based GPR evidence kernel, kept as the oracle for the production one.

Before the evidence loop moved to the Cholesky factor's own routines it
factorised with ``numpy.linalg.cholesky`` and then ran general
``numpy.linalg.solve`` (an LU factorisation) on the triangular factor:
twice for ``α = K⁻¹y`` and twice, with ``n`` right-hand sides, for the
gradient's ``K⁻¹``.  :class:`LUReferenceGPR` is the production regressor
with exactly that arithmetic swapped back in, so tests can compare the
two kernels value by value and end to end.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.prediction.gpr import GaussianProcessRegression, rbf_from_sq_dists


class LUReferenceGPR(GaussianProcessRegression):
    """:class:`GaussianProcessRegression` with the LU-based evidence kernel."""

    def _evidence(
        self, params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> Optional[Tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        signal, length, noise = params
        n = y.shape[0]
        K_rbf = rbf_from_sq_dists(sq_dists, signal, length)
        K = K_rbf + (noise + self.jitter) * np.eye(n)
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            return None
        alpha = np.linalg.solve(L.T, np.linalg.solve(L, y))
        nll = (
            0.5 * float(y @ alpha)
            + float(np.sum(np.log(np.diag(L))))
            + 0.5 * n * np.log(2.0 * np.pi)
        )
        return float(nll), L, alpha, K_rbf

    def _nll_and_grad(
        self, log_params: np.ndarray, sq_dists: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        terms = self._nll_terms(log_params, sq_dists, y)
        if terms is None:
            return 1e25, np.zeros(3)
        nll, L, alpha, K_rbf = terms
        _, length, noise = np.exp(log_params)
        n = y.shape[0]
        # Gradients: dNLL/dθ = -0.5 tr((αα^T - K^{-1}) dK/dθ)
        K_inv = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(n)))
        outer = np.outer(alpha, alpha) - K_inv
        dK_dsignal = K_rbf  # d/d log(signal) since K ∝ signal
        dK_dlength = K_rbf * sq_dists / (length**2)  # d/d log(length)
        dK_dnoise = noise * np.eye(n)  # d/d log(noise)
        grad = -0.5 * np.array(
            [
                float(np.sum(outer * dK_dsignal)),
                float(np.sum(outer * dK_dlength)),
                float(np.sum(outer * dK_dnoise)),
            ]
        )
        return nll, grad

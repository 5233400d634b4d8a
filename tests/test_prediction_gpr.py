"""Tests for repro.prediction.gpr."""

import itertools

import numpy as np
import pytest

from repro.experiments.backends import simulate_trace
from repro.experiments.registry import create_scheduler
from repro.prediction.gpr import (
    FitHealth,
    GaussianProcessRegression,
    rbf_kernel,
    squared_distances,
)
from repro.workload.trace import TraceConfig, TraceGenerator
from tests._gpr_oracle import LUReferenceGPR


class TestRBFKernel:
    def test_diagonal_is_signal_variance(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        K = rbf_kernel(X, X, signal_variance=2.0, length_scale=1.0)
        assert np.allclose(np.diag(K), 2.0)

    def test_symmetry_and_psd(self):
        X = np.random.default_rng(1).normal(size=(20, 4))
        K = rbf_kernel(X, X, 1.0, 1.5)
        assert np.allclose(K, K.T)
        eigvals = np.linalg.eigvalsh(K)
        assert eigvals.min() > -1e-8

    def test_decay_with_distance(self):
        a = np.zeros((1, 2))
        near = np.array([[0.1, 0.0]])
        far = np.array([[5.0, 0.0]])
        assert rbf_kernel(a, near, 1.0, 1.0)[0, 0] > rbf_kernel(a, far, 1.0, 1.0)[0, 0]


@pytest.fixture
def smooth_data(rng):
    X = np.sort(rng.uniform(-3, 3, size=(80, 1)), axis=0)
    y = np.sin(X[:, 0]) * 3.0 + rng.normal(scale=0.05, size=80)
    return X, y


class TestFitPredict:
    def test_interpolates_smooth_function(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegression(random_state=0).fit(X, y)
        pred = model.predict(X)
        assert np.mean(np.abs(pred - y)) < 0.2

    def test_predictive_uncertainty_grows_off_data(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegression(random_state=0).fit(X, y)
        _, std_in = model.predict(np.array([[0.0]]), return_std=True)
        _, std_out = model.predict(np.array([[30.0]]), return_std=True)
        assert std_out[0] > std_in[0]

    def test_log_marginal_likelihood_improves_with_optimization(self, smooth_data):
        X, y = smooth_data
        fixed = GaussianProcessRegression(
            optimize_hyperparameters=False, length_scale=0.01, random_state=0
        ).fit(X, y)
        tuned = GaussianProcessRegression(random_state=0).fit(X, y)
        assert tuned.log_marginal_likelihood_ >= fixed.log_marginal_likelihood_

    def test_subsamples_large_training_sets(self, rng):
        X = rng.normal(size=(300, 2))
        y = X[:, 0] + rng.normal(scale=0.1, size=300)
        model = GaussianProcessRegression(max_training_points=50, random_state=0).fit(X, y)
        assert model.X_train_.shape[0] == 50

    def test_predict_one(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegression(random_state=0).fit(X, y)
        mean, std = model.predict_one(X[0])
        assert isinstance(mean, float) and std > 0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegression().predict(np.zeros((1, 2)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            GaussianProcessRegression().fit(np.empty((0, 2)), np.empty(0))

    def test_mismatched_shapes_rejected(self, rng):
        with pytest.raises(ValueError):
            GaussianProcessRegression().fit(rng.normal(size=(5, 2)), rng.normal(size=3))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            GaussianProcessRegression(noise_variance=0.0)

    def test_predict_mean_one_matches_predict_one_mean(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegression(random_state=0).fit(X, y)
        for x in X[:5]:
            assert model.predict_mean_one(x) == model.predict_one(x)[0]


class TestNLLGradient:
    def test_gradient_matches_finite_differences_with_underflowed_pairs(self):
        # Two clusters far enough apart that the RBF kernel underflows to
        # exactly 0.0 between them at a small length scale: the old
        # log-recovered squared distances clamped those pairs and zeroed
        # their (real) contribution to the length-scale gradient.
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(0.0, 0.3, size=(6, 2)),
                       rng.normal(90.0, 0.3, size=(6, 2))])
        y = np.concatenate([np.zeros(6), np.ones(6)])
        model = GaussianProcessRegression()
        log_params = np.log([1.5, 1.2, 0.3])
        assert (rbf_kernel(X[:6], X[6:], 1.5, 1.2) == 0.0).all()  # underflow
        sq_dists = squared_distances(X, X)
        _, grad = model._nll_and_grad(log_params, sq_dists, y)
        eps = 1e-6
        for i in range(3):
            bump = np.zeros(3)
            bump[i] = eps
            hi = model._nll_value(log_params + bump, sq_dists, y)
            lo = model._nll_value(log_params - bump, sq_dists, y)
            numeric = (hi - lo) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_nll_value_matches_nll_and_grad_value(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegression()
        log_params = np.log([1.0, 1.0, 0.1])
        sq_dists = squared_distances(X, X)
        assert model._nll_value(log_params, sq_dists, y) == model._nll_and_grad(
            log_params, sq_dists, y
        )[0]

    def test_squared_distances_are_exact(self):
        a = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert np.allclose(squared_distances(a, a), [[0.0, 25.0], [25.0, 0.0]])


class TestSubsampleSeeding:
    def test_successive_refits_see_different_subsamples(self, rng):
        X = rng.normal(size=(300, 2))
        y = X[:, 0] + rng.normal(scale=0.1, size=300)
        model = GaussianProcessRegression(
            max_training_points=50, optimize_hyperparameters=False, random_state=0
        )
        model.fit(X, y)
        first = model.X_train_.copy()
        model.fit(X, y)
        second = model.X_train_.copy()
        assert not np.array_equal(first, second)

    def test_first_fit_reproduces_the_historical_subsample(self, rng):
        X = rng.normal(size=(300, 2))
        y = X[:, 0] + rng.normal(scale=0.1, size=300)
        model = GaussianProcessRegression(
            max_training_points=50, optimize_hyperparameters=False, random_state=7
        ).fit(X, y)
        keep = np.random.default_rng(7).choice(300, size=50, replace=False)
        assert np.array_equal(model.X_train_, X[keep])

    def test_fresh_instances_stay_deterministic(self, rng):
        X = rng.normal(size=(300, 2))
        y = X[:, 0] + rng.normal(scale=0.1, size=300)
        a = GaussianProcessRegression(
            max_training_points=50, optimize_hyperparameters=False, random_state=3
        ).fit(X, y)
        b = GaussianProcessRegression(
            max_training_points=50, optimize_hyperparameters=False, random_state=3
        ).fit(X, y)
        assert np.array_equal(a.X_train_, b.X_train_)


#: Agreement required of the Cholesky-native evidence kernel with the LU
#: oracle, fixed before measuring: the NLL to rtol 1e-9, and every
#: gradient component to 1e-9 relative to itself or, for components near
#: zero, to the gradient's largest component.
ORACLE_RTOL = 1e-9

#: Log-hyper-parameters (signal, length, noise) spanning the L-BFGS-B
#: bounds of ±6 on every axis.
ORACLE_LOG_GRID = (-6.0, -3.0, 0.0, 3.0, 6.0)


def _standardized_data(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = np.sin(X[:, 0]) + rng.normal(scale=0.1, size=n)
    return X, (y - y.mean()) / y.std()


class TestEvidenceKernelOracle:
    @pytest.mark.parametrize("n", [3, 17, 64, 128])
    def test_nll_and_gradient_match_lu_oracle(self, n):
        X, y = _standardized_data(n, seed=n)
        sq_dists = squared_distances(X, X)
        model, oracle = GaussianProcessRegression(), LUReferenceGPR()
        for log_params in itertools.product(ORACLE_LOG_GRID, repeat=3):
            log_params = np.array(log_params)
            nll, grad = model._nll_and_grad(log_params, sq_dists, y)
            ref_nll, ref_grad = oracle._nll_and_grad(log_params, sq_dists, y)
            assert nll == pytest.approx(ref_nll, rel=ORACLE_RTOL), log_params
            np.testing.assert_allclose(
                grad,
                ref_grad,
                rtol=ORACLE_RTOL,
                atol=ORACLE_RTOL * np.abs(ref_grad).max(),
                err_msg=str(log_params),
            )

    def test_no_numpy_linalg_on_any_path(self, monkeypatch):
        # numpy and scipy bundle separate OpenBLAS builds; mixing them in
        # one loop made unpinned refits slower than the LU kernel.
        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.linalg called from the GPR")

        monkeypatch.setattr(np.linalg, "cholesky", forbidden)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        X, y = _standardized_data(40, seed=0)
        model = GaussianProcessRegression(random_state=0).fit(X, y)
        assert model.health.nll_evaluations > 0
        mean, std = model.predict(X, return_std=True)
        assert np.all(np.isfinite(mean)) and np.all(std > 0)

    def test_non_pd_kernel_scores_1e25_and_is_counted(self):
        # Four identical points with an enormous signal variance: the
        # 1e-8 jitter vanishes in rounding and K is exactly rank one.
        X = np.zeros((4, 2))
        y = np.arange(4.0)
        sq_dists = squared_distances(X, X)
        model = GaussianProcessRegression()
        nll, grad = model._nll_and_grad(np.array([40.0, 0.0, -40.0]), sq_dists, y)
        assert nll == 1e25
        assert np.array_equal(grad, np.zeros(3))
        assert model.health == FitHealth(nll_evaluations=1, non_pd_evaluations=1)
        model._nll_and_grad(np.log([1.0, 1.0, 0.1]), sq_dists, y)
        assert model.health == FitHealth(nll_evaluations=2, non_pd_evaluations=1)

    def test_iteration_cap_counts_an_unconverged_fit(self, smooth_data):
        X, y = smooth_data
        capped = GaussianProcessRegression(
            max_optimizer_iterations=1, random_state=0
        ).fit(X, y)
        assert capped.health.unconverged_fits == 1
        assert capped.health.optimizer_iterations == 1
        assert capped.health.nll_evaluations >= 2
        assert capped.health.non_pd_evaluations == 0

    def test_log_marginal_likelihood_is_the_fitted_evidence(self, smooth_data):
        X, y = smooth_data
        model = GaussianProcessRegression(random_state=0).fit(X, y)
        log_params = np.log(
            [model.signal_variance, model.length_scale, model.noise_variance]
        )
        sq_dists = squared_distances(model.X_train_, model.X_train_)
        nll = model._nll_value(log_params, sq_dists, model.y_train_)
        assert model.log_marginal_likelihood_ == pytest.approx(-nll, rel=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_ones_jct_matches_lu_oracle(seed, monkeypatch):
    """Same ONES replay with the production GPR and the LU oracle swapped in."""
    trace = TraceGenerator(TraceConfig(num_jobs=16), seed=seed).generate()

    def average_jct():
        scheduler = create_scheduler("ONES", seed)
        result = simulate_trace(scheduler, trace, num_gpus=16)
        assert len(result.completed) == 16
        assert scheduler.predictor.fit_count > 0
        return result.average_jct

    production = average_jct()
    monkeypatch.setattr(
        "repro.prediction.predictor.GaussianProcessRegression", LUReferenceGPR
    )
    oracle = average_jct()
    assert production == pytest.approx(oracle, rel=0.05)

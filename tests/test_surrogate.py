import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from prosrs import _kernels
from prosrs.problem import BoxDomain, EvalDataset
from prosrs.surrogate import (
    DEFAULT_LAMBDA_GRID,
    RbfSurrogate,
    fit_rbf,
    normalized_responses,
    predict_batch,
    relative_l2_error,
    response_weights,
)

from oracles import fixed_lambda_model, gcv_scores, training_loss


def unit_box(d=1):
    return BoxDomain(np.zeros(d), np.ones(d))


def multiquadric(r):
    return np.sqrt(1.0 + np.asarray(r, dtype=float) ** 2)


class TestWeights:
    def test_constant_responses_give_unit_weights(self):
        y = np.full(5, 3.0)
        np.testing.assert_array_equal(normalized_responses(y), np.zeros(5))
        np.testing.assert_array_equal(response_weights(y, -2.0), np.ones(5))

    def test_gamma_zero_gives_unit_weights(self):
        y = np.array([0.0, 1.0, 10.0])
        np.testing.assert_array_equal(response_weights(y, 0.0), np.ones(3))

    def test_negative_gamma_favors_low_responses(self):
        y = np.array([0.0, 5.0, 10.0])
        w = response_weights(y, -2.0)
        np.testing.assert_allclose(w, [1.0, np.exp(-1.0), np.exp(-2.0)])


class TestPredict:
    def model(self, centers, coefficients, d=1):
        return RbfSurrogate(
            centers=np.atleast_2d(centers),
            coefficients=coefficients,
            gamma=0.0,
            lam=0.0,
            norm_record=unit_box(d),
        )

    def test_single_center_at_center(self):
        m = self.model([[0.4]], [2.0])
        assert predict_batch(m, np.array([0.4]))[0] == pytest.approx(2.0)

    def test_zero_coefficients_everywhere_zero(self):
        m = self.model([[0.2], [0.8]], [0.0, 0.0])
        x = np.linspace(0, 1, 7)[:, None]
        np.testing.assert_array_equal(predict_batch(m, x), np.zeros(7))

    def test_symmetric_midpoint(self):
        c = 1.7
        m = self.model([[0.2], [0.8]], [c, c])
        want = 2.0 * c * multiquadric(0.3)
        assert predict_batch(m, np.array([0.5]))[0] == pytest.approx(want)

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(0, 1, size=(6, 2))
        c1 = rng.normal(size=6)
        c2 = rng.normal(size=6)
        x = rng.uniform(0, 1, size=(20, 2))
        m1 = RbfSurrogate(centers, c1, 0.0, 0.0, unit_box(2))
        m2 = RbfSurrogate(centers, c2, 0.0, 0.0, unit_box(2))
        m12 = RbfSurrogate(centers, c1 + c2, 0.0, 0.0, unit_box(2))
        np.testing.assert_allclose(
            predict_batch(m12, x),
            predict_batch(m1, x) + predict_batch(m2, x),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        m = self.model([[0.4]], [2.0])
        with pytest.raises(ValueError):
            predict_batch(m, np.array([0.4, 0.2]))

    @pytest.mark.parametrize(
        "rows",
        [1, _kernels.BLOCK_ROWS - 1, _kernels.BLOCK_ROWS, _kernels.BLOCK_ROWS + 1,
         3 * _kernels.BLOCK_ROWS + 7],
    )
    def test_blocked_rows_match_dense_product_bitwise(self, rows):
        rng = np.random.default_rng(rows)
        domain = BoxDomain(np.array([-2.0, 0.0, 1.0]), np.array([3.0, 0.5, 9.0]))
        centers = rng.uniform(0, 1, size=(37, 3))
        coef = rng.normal(size=37)
        m = RbfSurrogate(centers, coef, 0.0, 0.0, domain)
        X = domain.sample_uniform(rows, rng)
        u = domain.to_unit(X)
        want = np.sqrt(1 + cdist(u, centers, "sqeuclidean")) @ coef
        np.testing.assert_array_equal(predict_batch(m, X), want)

    def test_peak_memory_does_not_grow_with_rows(self):
        # A dense 100 000 x 400 basis matrix alone would take 305 MiB.
        rng = np.random.default_rng(0)
        m = RbfSurrogate(rng.uniform(size=(400, 10)), rng.normal(size=400), 0.0, 0.0, unit_box(10))
        X = rng.uniform(size=(100_000, 10))
        tracemalloc.start()
        try:
            predict_batch(m, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestFit:
    def test_requires_two_points(self):
        data = EvalDataset(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ValueError):
            fit_rbf(data, unit_box(), 0.0)

    def test_rejects_positive_gamma(self):
        data = EvalDataset(np.array([[0.2], [0.8]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_rbf(data, unit_box(), 0.5)

    def test_exact_recovery_at_tiny_lambda(self):
        # Responses built from a known coefficient vector on three 1-D points;
        # the ridge solve at a vanishing penalty must reproduce them, matching
        # a direct linear solve of the interpolation system.
        x = np.array([[0.1], [0.5], [0.9]])
        phi = multiquadric(np.abs(x - x[:, 0]))
        c_true = np.array([1.0, -2.0, 0.5])
        y = phi @ c_true
        data = EvalDataset(x, y)
        model = fixed_lambda_model(data, 0.0, 1e-12)
        np.testing.assert_allclose(predict_batch(model, x), y, atol=1e-6)
        oracle = np.linalg.solve(phi, y)
        np.testing.assert_allclose(model.coefficients, oracle, atol=1e-4)
        np.testing.assert_allclose(oracle, c_true, atol=1e-8)

    def test_lambda_comes_from_grid(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(15, 2))
        y = rng.standard_normal(15)
        model = fit_rbf(EvalDataset(X, y), unit_box(2), 0.0)
        assert model.lam in DEFAULT_LAMBDA_GRID

    def test_first_order_optimality(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(5, 20))
            d = int(rng.integers(1, 4))
            X = rng.uniform(0, 1, size=(n, d))
            y = rng.normal(size=n) * 5.0
            data = EvalDataset(X, y)
            model = fit_rbf(data, unit_box(d), float(-rng.integers(0, 3)))
            base = training_loss(model, data)
            for j in range(n):
                for delta in (1e-4, -1e-4):
                    c = model.coefficients.copy()
                    c[j] += delta
                    perturbed = replace(model, coefficients=c)
                    assert training_loss(perturbed, data) - base >= -1e-10

    def test_noise_selects_larger_lambda(self):
        # On a flat landscape, noisy responses should push GCV toward at least
        # as much regularization as clean ones.
        dom = unit_box(2)
        bigger = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.uniform(0, 1, size=(20, 2))
            clean = np.full(20, 5.0)
            noisy = clean + rng.standard_normal(20)
            m_clean = fit_rbf(EvalDataset(X, clean), dom, 0.0)
            m_noisy = fit_rbf(EvalDataset(X, noisy), dom, 0.0)
            bigger += m_noisy.lam >= m_clean.lam
        assert bigger >= 6

    def test_weighting_tightens_fit_at_best_point(self):
        # Fixed lambda, gamma < 0 vs gamma = 0: the residual at the lowest
        # response should (statistically) not get worse. Ties allowed.
        ok = 0
        improvements = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(8, 25))
            X = rng.uniform(0, 1, size=(n, 2))
            y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
            data = EvalDataset(X, y)
            m0 = fixed_lambda_model(data, 0.0, 1e-2)
            mw = fixed_lambda_model(data, -4.0, 1e-2)
            j = int(np.argmin(y))
            r0 = abs(y[j] - predict_batch(m0, X)[j])
            rw = abs(y[j] - predict_batch(mw, X)[j])
            improvements.append(r0 - rw)
            ok += rw <= r0 + 1e-12
        assert ok >= 36
        assert np.mean(improvements) > 0

    @pytest.mark.parametrize("gamma", [0.0, -2.0, -4.0])
    def test_lambda_minimizes_gcv_and_coefficients_solve_normal_equations(self, gamma):
        # The chosen penalty is the grid argmin of the GCV score computed from
        # the explicit hat matrix, and the coefficients solve the weighted
        # normal equations at that penalty.
        rng = np.random.default_rng(int(-gamma))
        chosen = set()
        for _ in range(20):
            n = int(rng.integers(4, 25))
            d = int(rng.integers(1, 4))
            X = rng.uniform(0, 1, size=(n, d))
            y = np.sin(3 * X.sum(axis=1)) + rng.uniform(0.0, 1.0) * rng.standard_normal(n)
            model = fit_rbf(EvalDataset(X, y), unit_box(d), gamma)
            phi = _kernels.multiquadric_matrix(X, X)
            w = response_weights(y, gamma)
            scores = gcv_scores(phi, w, y, DEFAULT_LAMBDA_GRID)
            assert model.lam == DEFAULT_LAMBDA_GRID[int(np.argmin(scores))]
            chosen.add(model.lam)
            gram = phi.T @ (w[:, None] * phi) + model.lam * np.eye(n)
            rhs = phi.T @ (w * y)
            assert np.linalg.norm(gram @ model.coefficients - rhs) <= 1e-8 * np.linalg.norm(rhs)
        assert len(chosen) >= 3

    def test_constant_responses_fit(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, size=(10, 2))
        data = EvalDataset(X, np.full(10, 2.5))
        model = fit_rbf(data, unit_box(2), -3.0)
        np.testing.assert_allclose(predict_batch(model, X), 2.5, atol=1e-3)


class TestRelativeL2Error:
    def fitted(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(12, 2))
        y = X[:, 0] + 2 * X[:, 1]
        return fit_rbf(EvalDataset(X, y), unit_box(2), 0.0)

    def test_identical_model_scores_zero(self):
        model = self.fitted()
        err = relative_l2_error(
            model, lambda X: predict_batch(model, X), unit_box(2), 500,
            np.random.default_rng(0),
        )
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_zero_model_against_constant(self):
        model = RbfSurrogate(np.array([[0.5, 0.5]]), np.array([0.0]), 0.0, 0.0, unit_box(2))
        err = relative_l2_error(
            model, lambda X: np.full(len(X), 5.0), unit_box(2), 200,
            np.random.default_rng(1),
        )
        assert err == pytest.approx(1.0)

    def test_double_model_scores_one(self):
        model = self.fitted()
        err = relative_l2_error(
            model, lambda X: 0.5 * predict_batch(model, X), unit_box(2), 500,
            np.random.default_rng(2),
        )
        assert err == pytest.approx(1.0, abs=1e-12)

    def test_zero_denominator_raises(self):
        model = self.fitted()
        with pytest.raises(ValueError):
            relative_l2_error(
                model, lambda X: np.zeros(len(X)), unit_box(2), 100,
                np.random.default_rng(3),
            )

    def test_rejects_true_mean_that_is_not_vectorized(self):
        model = self.fitted()
        for true_mean in (lambda x: 3.0, lambda X: np.full((len(X), 1), 3.0)):
            with pytest.raises(ValueError, match="shape"):
                relative_l2_error(model, true_mean, unit_box(2), 100, np.random.default_rng(4))

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prosrs import BENCHMARK_NAMES, _kernels, latin_hypercube_maximin, make_benchmark
from prosrs.problem import BoxDomain, EvalDataset
from prosrs.surrogate import (
    DEFAULT_LAMBDA_GRID,
    MC_VALUES_PER_POINT,
    RbfSurrogate,
    fit_rbf,
    min_max_scaled,
    predict_batch,
    relative_l2_error,
    response_weights,
)

from oracles import (
    fixed_lambda_model,
    gcv_scores,
    relative_l2_error_dense,
    svd_fit,
    training_loss,
)


def unit_box(d=1):
    return BoxDomain(np.zeros(d), np.ones(d))


def assert_matches_svd_oracle(data, domain, gamma):
    """fit_rbf picks the SVD oracle's penalty, and its predictions at the
    data and at 1000 uniform points are within 1e-9 of the oracle's, relative
    to their largest magnitude."""
    got, want = fit_rbf(data, domain, gamma), svd_fit(data, domain, gamma)
    assert got.lam == want.lam
    X = np.vstack([data.X, domain.sample_uniform(1000, np.random.default_rng(0))])
    g, w = predict_batch(got, X), predict_batch(want, X)
    assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w))


def multiquadric(r):
    return np.sqrt(1.0 + np.asarray(r, dtype=float) ** 2)


class TestWeights:
    def test_constant_responses_give_unit_weights(self):
        y = np.full(5, 3.0)
        np.testing.assert_array_equal(min_max_scaled(y), np.zeros(5))
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

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 3079])
    def test_blocked_rows_match_dense_product_bitwise(self, rows):
        rng = np.random.default_rng(rows)
        domain = BoxDomain(np.array([-2.0, 0.0, 1.0]), np.array([3.0, 0.5, 9.0]))
        centers = rng.uniform(0, 1, size=(37, 3))
        coef = rng.normal(size=37)
        m = RbfSurrogate(centers, coef, 0.0, 0.0, domain)
        X = domain.sample_uniform(rows, rng)
        u = domain.to_unit(X)
        want = _kernels.multiquadric_matrix(u, centers) @ coef
        np.testing.assert_array_equal(predict_batch(m, X), want)

    @pytest.mark.parametrize("rows", [2049, 2050, 4097])
    def test_blocked_rows_match_dense_product_under_one_blas_thread(self, rows):
        # The contract every run and model-error trial relies on. On two BLAS
        # threads the dense matrix-vector product splits these rows at a row
        # that is not a multiple of the block's rows, and the last bits can
        # differ.
        rng = np.random.default_rng(rows)
        m = RbfSurrogate(rng.uniform(size=(400, 10)), rng.normal(size=400), 0.0, 0.0, unit_box(10))
        X = rng.uniform(size=(rows, 10))
        with _kernels.one_blas_thread():
            want = _kernels.multiquadric_matrix(X, m.centers) @ m.coefficients
            np.testing.assert_array_equal(predict_batch(m, X), want)

    @pytest.mark.parametrize("n", [12, 37, 400])
    @pytest.mark.parametrize("offset", ["B-1", "B", "B+1", "3B+1"])
    def test_blocked_rows_match_dense_product_at_block_boundaries(self, n, offset):
        # B is the row count of one block against n centres.
        B = _kernels.row_blocks(10**6, n)[0].stop
        rows = {"B-1": B - 1, "B": B, "B+1": B + 1, "3B+1": 3 * B + 1}[offset]
        rng = np.random.default_rng(n)
        domain = BoxDomain(np.array([-2.0, 0.0, 1.0, -1e3]), np.array([3.0, 0.5, 9.0, 1e3]))
        m = RbfSurrogate(rng.uniform(size=(n, 4)), rng.normal(size=n), 0.0, 0.0, domain)
        X = domain.sample_uniform(rows, rng)
        with _kernels.one_blas_thread():
            want = _kernels.multiquadric_matrix(domain.to_unit(X), m.centers) @ m.coefficients
            got = predict_batch(m, X)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_does_not_grow_with_rows(self):
        # A dense 100 000 x 400 basis matrix alone would take 305 MiB, and a
        # unit-cube copy of all the points 7.6 MiB: prediction holds the result
        # (0.8 MiB) and one block's buffers (about 1 MiB).
        rng = np.random.default_rng(0)
        m = RbfSurrogate(rng.uniform(size=(400, 10)), rng.normal(size=400), 0.0, 0.0, unit_box(10))
        X = rng.uniform(size=(100_000, 10))
        tracemalloc.start()
        try:
            predict_batch(m, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestPoolScoring:
    """predict_batch with the pool outputs ``unit`` and ``nearest``."""

    # Each case: (domain, centres in unit coordinates, pool) in original
    # coordinates. 60 centres put 2176 rows in a block, so the pools of 4353
    # and 10 000 rows span several blocks.
    @staticmethod
    def case(name):
        rng = np.random.default_rng(len(name))
        if name == "ackley10":
            domain = make_benchmark("Ackley10").domain
            centers = rng.uniform(size=(60, 10))
            pool = domain.sample_uniform(10_000, rng)
        elif name == "anisotropic":
            domain = BoxDomain(np.array([-2.0, 0.0, 1.0, -1e3]), np.array([3.0, 0.5, 9.0, 1e3]))
            centers = rng.uniform(size=(60, 4))
            pool = domain.sample_uniform(4353, rng)
        elif name == "duplicate_centers":
            domain = BoxDomain(np.zeros(3), np.array([1.0, 2.0, 4.0]))
            centers = np.repeat(rng.uniform(size=(20, 3)), 3, axis=0)
            pool = domain.sample_uniform(4353, rng)
        else:  # pool rows equal to centres, duplicates among them
            domain = BoxDomain(np.array([-5.0, 0.0]), np.array([10.0, 15.0]))
            X = np.repeat(domain.sample_uniform(30, rng), 2, axis=0)
            centers = domain.to_unit(X)
            pool = np.vstack([domain.sample_uniform(4293, rng), X])
        coefficients = rng.normal(size=len(centers))
        return RbfSurrogate(centers, coefficients, 0.0, 0.0, domain), pool

    CASES = ["ackley10", "anisotropic", "duplicate_centers", "rows_on_centers"]

    @staticmethod
    def score(model, pool):
        unit, nearest = np.empty(pool.shape), np.empty(len(pool))
        return predict_batch(model, pool, unit=unit, nearest=nearest), unit, nearest

    @pytest.mark.parametrize("name", CASES)
    def test_values_and_unit_rows_equal_their_references_bitwise(self, name):
        model, pool = self.case(name)
        assert len(_kernels.row_blocks(len(pool), len(model.centers))) > 1
        with _kernels.one_blas_thread():
            g, unit, _ = self.score(model, pool)
            assert g.tobytes() == predict_batch(model, pool).tobytes()
        assert unit.tobytes() == model.norm_record.to_unit(pool).tobytes()

    @pytest.mark.parametrize("name", CASES)
    def test_nearest_distances_within_the_docstring_bound(self, name):
        # |r'^2 - r^2| <= E = (d + 3)^2 eps and |r' - r| <= min(sqrt(E), E / r),
        # against the exact search on the same unit coordinates.
        model, pool = self.case(name)
        _, unit, got = self.score(model, pool)
        want = _kernels.min_dists(unit, model.centers)
        bound = (model.norm_record.dim + 3) ** 2 * np.finfo(float).eps
        assert np.all(np.abs(got**2 - want**2) <= bound)
        with np.errstate(divide="ignore"):
            assert np.all(np.abs(got - want) <= np.minimum(np.sqrt(bound), bound / want))
        if name == "rows_on_centers":
            assert np.all(want[-60:] == 0.0) and np.all(want[:-60] > 0.0)

    def test_nearest_distance_of_a_single_row_and_centre(self):
        m = RbfSurrogate(np.array([[0.2, 0.6]]), np.array([1.0]), 0.0, 0.0, unit_box(2))
        _, _, nearest = self.score(m, np.array([[0.5, 0.2]]))
        assert nearest[0] == pytest.approx(0.5, rel=1e-15)


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

    @pytest.mark.parametrize("e", [-1000, -600, 500, 900])
    def test_power_of_two_response_scale_keeps_lambda_and_scales_coefficients(self, e):
        # Scaling the responses by 2^e is exact, so GCV must pick the same
        # penalty and the coefficients must scale by exactly 2^e; squaring
        # the raw scores would overflow (e >= 500) or underflow to ties. Both
        # decompositions: eigh at gamma = 0, the SVD at gamma = -2.
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(40, 3))
        y = 3.0 + np.sin(3 * X.sum(axis=1)) + 0.3 * rng.standard_normal(40)
        for gamma in (0.0, -2.0):
            base = fit_rbf(EvalDataset(X, y), unit_box(3), gamma)
            scaled = fit_rbf(EvalDataset(X, np.ldexp(y, e)), unit_box(3), gamma)
            assert scaled.lam == base.lam
            np.testing.assert_array_equal(scaled.coefficients, np.ldexp(base.coefficients, e))

    @pytest.mark.parametrize("name", ["Ackley10", "Hartmann6", "Rastrigin2"])
    def test_symmetric_fit_matches_svd_oracle_on_model_error_designs(self, name):
        # Designs of the kind model_error_trial fits: one unscored Latin
        # hypercube and the problem's noise. At gamma = 0 every weight is 1
        # and fit_rbf decomposes the symmetric Phi with eigh; the oracle
        # takes the SVD of the same matrix.
        problem = make_benchmark(name)
        for n in (50, 100, 200, 400):
            rng = np.random.default_rng(n)
            X = latin_hypercube_maximin(n, problem.domain, rng, n_restarts=1)
            y = problem.true_mean(X) + problem.noise_std * rng.standard_normal(n)
            assert_matches_svd_oracle(EvalDataset(X, y), problem.domain, 0.0)

    def test_symmetric_fit_matches_svd_oracle_on_duplicate_points(self):
        # Ten points appear twice, so Phi has (numerically) zero eigenvalues.
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, size=(30, 2))
        X[20:] = X[:10]
        y = np.sin(3 * X.sum(axis=1)) + 0.1 * rng.standard_normal(30)
        assert_matches_svd_oracle(EvalDataset(X, y), unit_box(2), 0.0)

    def test_symmetric_fit_matches_svd_oracle_on_constant_responses(self):
        # Constant responses give unit weights whatever gamma is.
        X = np.random.default_rng(5).uniform(0, 1, size=(40, 3))
        for gamma in (0.0, -3.0):
            assert_matches_svd_oracle(EvalDataset(X, np.full(40, 2.5)), unit_box(3), gamma)

    @pytest.mark.parametrize("gamma", [-2.0, -4.0])
    def test_weighted_fit_equals_svd_oracle_bitwise(self, gamma):
        rng = np.random.default_rng(int(-gamma))
        for _ in range(10):
            n, d = int(rng.integers(4, 130)), int(rng.integers(1, 11))
            X = rng.uniform(0, 1, size=(n, d))
            y = np.sin(3 * X.sum(axis=1)) + rng.standard_normal(n)
            data = EvalDataset(X, y)
            got, want = fit_rbf(data, unit_box(d), gamma), svd_fit(data, unit_box(d), gamma)
            assert got.lam == want.lam
            assert got.coefficients.tobytes() == want.coefficients.tobytes()

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

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_huge_and_tiny_responses_score_as_unit_scale(self, scale):
        # The squares of 1e160 overflow and those of 1e-160 underflow; scaled
        # by a power of two, the ratio is that of the unit-scale problem, up
        # to the rounding of the decimal scale in the fit.
        dom = BoxDomain(-np.ones(2), np.ones(2))
        X = np.random.default_rng(5).uniform(-1, 1, size=(30, 2))

        def error(s):
            def true_mean(P):
                return s * (1.0 + np.sum(P**2, axis=1))

            model = fit_rbf(EvalDataset(X, true_mean(X)), dom, 0.0)
            return relative_l2_error(model, true_mean, dom, 2000, np.random.default_rng(6))

        unit = error(1.0)
        assert 0.0 < unit < 0.1
        assert error(scale) == pytest.approx(unit, rel=1e-9)
        # A power of two scales exactly, so the ratio is the same bit for bit.
        assert error(2.0 ** np.round(np.log2(scale))) == unit

    def test_rejects_true_mean_that_is_not_vectorized(self):
        model = self.fitted()
        for true_mean in (lambda x: 3.0, lambda X: np.full((len(X), 1), 3.0)):
            with pytest.raises(ValueError, match="shape"):
                relative_l2_error(model, true_mean, unit_box(2), 100, np.random.default_rng(4))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_true_mean(self, bad):
        # One bad value in the third chunk of the sample, at row 2C + 5.
        model = self.fitted()
        C = _kernels.row_blocks(10**7, MC_VALUES_PER_POINT)[0].stop
        seen = []

        def true_mean(X):
            values = np.ones(len(X))
            start = sum(len(x) for x in seen)
            if start <= 2 * C + 5 < start + len(X):
                values[2 * C + 5 - start] = bad
            seen.append(X.copy())
            return values

        with pytest.raises(ValueError, match="non-finite value") as info:
            relative_l2_error(model, true_mean, unit_box(2), 3 * C, np.random.default_rng(7))
        point = np.concatenate(seen)[2 * C + 5]
        assert f"{bad} at point {point}" in str(info.value)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_chunked_sample_equals_one_pass_bitwise(self, name):
        # C is one chunk's row count: n_mc of 1, C - 1, C, C + 1 (the one-row
        # remainder joins the chunk before it) and 3C + 1 points score as one
        # draw, prediction and call of all.
        problem = make_benchmark(name)
        dom = problem.domain
        C = _kernels.row_blocks(10**7, MC_VALUES_PER_POINT)[0].stop
        for n in (10, 400):
            X = dom.sample_uniform(n, np.random.default_rng(n))
            model = fit_rbf(EvalDataset(X, problem.true_mean(X)), dom, 0.0)
            for n_mc in (1, C - 1, C, C + 1, 3 * C + 1):
                with _kernels.one_blas_thread():
                    got = relative_l2_error(
                        model, problem.true_mean, dom, n_mc, np.random.default_rng(n_mc)
                    )
                    want = relative_l2_error_dense(
                        model, problem.true_mean, dom, n_mc, np.random.default_rng(n_mc)
                    )
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), (n, n_mc)

    def test_peak_memory_does_not_grow_with_samples(self):
        # In one pass, Hartmann6 holds a (100 000, 4, 6) temporary (18 MiB)
        # beside the 4.6 MiB sample; a chunk of 8192 rows holds 1.5 MiB of
        # it, beside the two 0.8 MiB value arrays and prediction's 1 MiB
        # block.
        problem = make_benchmark("Hartmann6")
        X = problem.domain.sample_uniform(400, np.random.default_rng(0))
        model = fit_rbf(EvalDataset(X, problem.true_mean(X)), problem.domain, 0.0)
        tracemalloc.start()
        try:
            relative_l2_error(
                model, problem.true_mean, problem.domain, 100_000, np.random.default_rng(1)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

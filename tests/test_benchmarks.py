from dataclasses import replace

import numpy as np
import pytest

from prosrs.benchmarks import (
    BENCHMARK_NAMES,
    NoisyBatchEvaluator,
    benchmark_objective,
    dropwave,
    goldstein_price,
    hartmann6,
    make_benchmark,
    power_sum,
    schaffer_n2,
    six_hump_camel,
)
from prosrs.engine import run_prosrs
from prosrs.problem import default_config, stream_seedseq

TABLE = {
    # name: (dim, lower, upper, noise_std)
    "Ackley10": (10, -32.768, 32.768, 1.0),
    "Alpine10": (10, -10.0, 10.0, 1.0),
    "Griewank10": (10, -600.0, 600.0, 2.0),
    "Levy10": (10, -10.0, 10.0, 1.0),
    "SumPower10": (10, -1.0, 1.0, 0.05),
    "Schaffer2": (2, -100.0, 100.0, 0.02),
    "Dropwave2": (2, -5.12, 5.12, 0.02),
    "GoldsteinPrice2": (2, -2.0, 2.0, 2.0),
    "Rastrigin2": (2, -5.12, 5.12, 0.5),
    "Hartmann6": (6, 0.0, 1.0, 0.05),
    "PowerSum4": (4, 0.0, 4.0, 1.0),
}


def test_all_twelve_names_present():
    assert len(BENCHMARK_NAMES) == 12
    assert set(TABLE) | {"SixHumpCamel2"} == set(BENCHMARK_NAMES)


@pytest.mark.parametrize("name", sorted(TABLE))
def test_domains_and_noise_match_table(name):
    d, lo, hi, std = TABLE[name]
    p = make_benchmark(name)
    assert p.dimension == d
    np.testing.assert_array_equal(p.domain.lower, np.full(d, lo))
    np.testing.assert_array_equal(p.domain.upper, np.full(d, hi))
    assert p.noise_std == std


def test_six_hump_camel_rectangle():
    p = make_benchmark("SixHumpCamel2")
    np.testing.assert_array_equal(p.domain.lower, [-3.0, -2.0])
    np.testing.assert_array_equal(p.domain.upper, [3.0, 2.0])
    assert p.noise_std == 0.1


def test_unknown_name_lists_valid_names():
    with pytest.raises(ValueError) as err:
        make_benchmark("Nope5")
    assert "Ackley10" in str(err.value)


class TestKnownValues:
    def test_ackley_at_origin(self):
        assert make_benchmark("Ackley10").true_mean(np.zeros(10)) == pytest.approx(0.0, abs=1e-12)

    def test_alpine_at_origin(self):
        assert make_benchmark("Alpine10").true_mean(np.zeros(10)) == 0.0

    def test_griewank_at_origin(self):
        assert make_benchmark("Griewank10").true_mean(np.zeros(10)) == pytest.approx(0.0)

    def test_levy_at_ones(self):
        assert make_benchmark("Levy10").true_mean(np.ones(10)) == pytest.approx(0.0, abs=1e-12)

    def test_sum_power_at_origin(self):
        assert make_benchmark("SumPower10").true_mean(np.zeros(10)) == 0.0

    def test_dropwave_at_origin(self):
        assert make_benchmark("Dropwave2").true_mean(np.zeros(2)) == pytest.approx(-1.0)

    def test_rastrigin_at_origin(self):
        assert make_benchmark("Rastrigin2").true_mean(np.zeros(2)) == pytest.approx(0.0)

    def test_schaffer_at_origin(self):
        assert make_benchmark("Schaffer2").true_mean(np.zeros(2)) == pytest.approx(0.0)

    def test_goldstein_price_value(self):
        p = make_benchmark("GoldsteinPrice2")
        assert p.true_mean(np.array([0.0, -1.0])) == pytest.approx(3.0)

    def test_goldstein_price_is_global_min_on_grid(self):
        p = make_benchmark("GoldsteinPrice2")
        g = np.linspace(-2, 2, 161)
        xx, yy = np.meshgrid(g, g)
        vals = p.true_mean(np.column_stack([xx.ravel(), yy.ravel()]))
        assert vals.min() >= 3.0 - 1e-9

    def test_six_hump_camel_minimum(self):
        p = make_benchmark("SixHumpCamel2")
        x = np.array([0.0898, -0.7126])
        assert p.true_mean(x) == pytest.approx(p.known_min_value, abs=1e-4)
        assert p.true_mean(-x) == pytest.approx(p.known_min_value, abs=1e-4)

    def test_hartmann6_minimum_location_and_value(self):
        p = make_benchmark("Hartmann6")
        assert p.true_mean(p.known_minimizer) == pytest.approx(-3.3224, abs=1e-3)
        # Local refinement from coarse sampling must not find anything lower.
        from scipy.optimize import minimize

        rng = np.random.default_rng(0)
        X = p.domain.sample_uniform(100_000, rng)
        vals = p.true_mean(X)
        start = X[int(np.argmin(vals))]
        res = minimize(lambda x: p.true_mean(x), start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        assert res.fun >= p.known_min_value - 1e-6
        assert res.fun == pytest.approx(p.known_min_value, abs=1e-4)

    @pytest.mark.parametrize("rows", [1, 7, 8192])
    def test_hartmann6_equals_broadcast_formula_bitwise(self, rows):
        # The textbook broadcast form, with its three (rows, 4, 6)
        # temporaries; hartmann6 squares and scales one in place.
        from prosrs.benchmarks import _HARTMANN6_A, _HARTMANN6_ALPHA, _HARTMANN6_P

        X = np.random.default_rng(rows).uniform(0.0, 1.0, size=(rows, 6))
        diff = X[:, None, :] - _HARTMANN6_P[None, :, :]
        inner = np.sum(_HARTMANN6_A[None, :, :] * diff**2, axis=2)
        want = -np.sum(_HARTMANN6_ALPHA * np.exp(-inner), axis=1)
        assert hartmann6(X).tobytes() == want.tobytes()

    def test_power_sum_minimizer(self):
        p = make_benchmark("PowerSum4")
        assert p.true_mean(p.known_minimizer) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(BENCHMARK_NAMES))
def test_no_sample_beats_recorded_minimum(name):
    p = make_benchmark(name)
    rng = np.random.default_rng(42)
    vals = p.true_mean(p.domain.sample_uniform(1_000_000, rng))
    assert vals.min() >= p.known_min_value - 1e-9


@pytest.mark.parametrize("name", sorted(BENCHMARK_NAMES))
def test_batched_true_mean_equals_pointwise(name):
    # The evaluator scores a whole batch at once and the objective one point:
    # both must give the same values, bit for bit.
    p = make_benchmark(name)
    X = p.domain.sample_uniform(100, np.random.default_rng(3))
    batched = p.true_mean(X)
    assert batched.shape == (100,)
    assert batched.tolist() == [p.true_mean(x) for x in X]


@pytest.mark.parametrize("name", sorted(BENCHMARK_NAMES))
def test_each_problem_gets_its_own_minimizer(name):
    p = make_benchmark(name)
    if p.known_minimizer is None:
        assert make_benchmark(name).known_minimizer is None
        return
    want = p.known_minimizer.copy()
    p.known_minimizer[0] = 5.0
    np.testing.assert_array_equal(make_benchmark(name).known_minimizer, want)


@pytest.mark.parametrize(
    "f, d",
    [(six_hump_camel, 2), (schaffer_n2, 2), (dropwave, 2), (goldstein_price, 2),
     (hartmann6, 6), (power_sum, 4)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_fixed_dimension_landscapes_reject_other_dimensions(f, d):
    for other in (d - 1, d + 1):
        with pytest.raises(ValueError, match=f"expected points of dimension {d}, got {other}"):
            f(np.zeros(other))
        with pytest.raises(ValueError, match=f"expected points of dimension {d}, got {other}"):
            f(np.zeros((3, other)))


class TestNoisyEval:
    """Each evaluated point is its true mean plus noise_std times one normal draw."""

    def test_zero_noise_equals_true_mean(self):
        p = replace(make_benchmark("Rastrigin2"), noise_std=0.0)
        X = p.domain.sample_uniform(5, np.random.default_rng(0))
        np.testing.assert_array_equal(NoisyBatchEvaluator(p, 0)(X), p.true_mean(X))

    def test_outside_domain_rejected(self):
        calls = []
        dropwave = make_benchmark("Dropwave2")
        p = replace(dropwave, true_mean=lambda X: calls.append(X) or dropwave.true_mean(X))
        X = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, -7.0]])
        with pytest.raises(ValueError, match=r"point \[6\. 0\.\] lies outside"):
            NoisyBatchEvaluator(p, 0)(X)
        assert calls == []  # the whole batch is checked before any evaluation

    def test_moment_checks(self):
        p = make_benchmark("Rastrigin2")
        x = np.array([0.5, -0.5])
        n = 100_000
        draws = NoisyBatchEvaluator(p, 7)(np.tile(x, (n, 1)))
        mean_tol = 4.0 * p.noise_std / np.sqrt(n)
        assert abs(draws.mean() - p.true_mean(x)) <= mean_tol
        assert abs(draws.std(ddof=1) - p.noise_std) <= 0.03 * p.noise_std
        centered = draws - draws.mean()
        rho1 = np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered)
        assert abs(rho1) < 0.02


class TestEvaluators:
    def test_batch_evaluator_deterministic_and_split_invariant(self):
        p = make_benchmark("SixHumpCamel2")
        X = p.domain.sample_uniform(16, np.random.default_rng(1))
        whole = NoisyBatchEvaluator(p, seed=5)(X)
        whole2 = NoisyBatchEvaluator(p, seed=5)(X)
        ev = NoisyBatchEvaluator(p, seed=5)
        split = np.concatenate([ev(X[i : i + 4]) for i in range(0, 16, 4)])
        np.testing.assert_array_equal(whole, whole2)
        np.testing.assert_array_equal(whole, split)

    def test_batch_evaluator_state_advances(self):
        p = make_benchmark("SixHumpCamel2")
        ev = NoisyBatchEvaluator(p, seed=5)
        X = p.domain.sample_uniform(4, np.random.default_rng(2))
        first = ev(X)
        second = ev(X)
        assert not np.array_equal(first, second)

    def test_scalar_true_mean_rejected(self):
        p = replace(make_benchmark("Dropwave2"), true_mean=lambda X: float(np.sum(X)))
        X = p.domain.sample_uniform(4, np.random.default_rng(2))
        with pytest.raises(ValueError, match=r"true_mean must map \(n, d\) to \(n,\)"):
            NoisyBatchEvaluator(p, seed=5)(X)

    def test_objective_wrapper_noise_scale(self):
        p = make_benchmark("Rastrigin2")
        obj = benchmark_objective(p, 3)
        draws = np.concatenate([obj.evaluate(np.zeros((4, 2))) for _ in range(500)])
        assert abs(draws.mean()) < 0.05  # true value 0, std 0.5
        assert abs(draws.std(ddof=1) - 0.5) < 0.05

    @pytest.mark.parametrize("name", ["Dropwave2", "Ackley10", "Rastrigin2"])
    def test_objective_run_equals_evaluator_run(self, name):
        # A library run through the objective alone draws the same noise as
        # the CLI's run through the batch evaluator on the "noise" stream.
        p = make_benchmark(name)
        cfg = default_config(p.dimension, 4, n_iterations=5, seed=0)
        alone = run_prosrs(benchmark_objective(p, 0), cfg).logs
        batched = run_prosrs(
            benchmark_objective(p, 0), cfg, NoisyBatchEvaluator(p, stream_seedseq(0, "noise"))
        ).logs
        assert len(alone) == len(batched)
        for a, b in zip(alone, batched):
            np.testing.assert_array_equal(a.proposed_x, b.proposed_x)
            np.testing.assert_array_equal(a.proposed_y, b.proposed_y)

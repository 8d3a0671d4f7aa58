import numpy as np
import pytest

from selection_oracle import oracle_select

from prosrs.problem import BoxDomain, EvalDataset, ExploitState, clip_to_domain
from prosrs.srs import (
    best_fit_index,
    generate_candidates,
    select_batch,
    weight_pattern,
)
from prosrs.surrogate import RbfSurrogate, predict_batch


def unit_box(d=2):
    return BoxDomain(np.zeros(d), np.ones(d))


def toy_model(seed=0, d=2, n_centers=5):
    rng = np.random.default_rng(seed)
    return RbfSurrogate(
        centers=rng.uniform(0, 1, size=(n_centers, d)),
        coefficients=rng.normal(size=n_centers),
        gamma=0.0,
        lam=0.0,
        norm_record=unit_box(d),
    )


def toy_data(seed=0, d=2, n=6):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, d))
    return EvalDataset(X, rng.normal(size=n))


class TestWeightPattern:
    def test_three_slots(self):
        np.testing.assert_allclose(weight_pattern(3), [0.3, 0.65, 1.0])

    def test_two_slots_are_endpoints(self):
        np.testing.assert_allclose(weight_pattern(2), [0.3, 1.0])

    def test_single_slot_alternates(self):
        np.testing.assert_allclose(weight_pattern(1, 0), [0.3])
        np.testing.assert_allclose(weight_pattern(1, 1), [1.0])
        np.testing.assert_allclose(weight_pattern(1, 2), [0.3])

    def test_bounds_enforced(self):
        pts = np.random.default_rng(0).uniform(0, 1, size=(10, 2))
        for weights in (np.array([0.2]), np.array([0.3, 1.2])):
            with pytest.raises(ValueError, match=r"\[0\.3, 1\]"):
                select_batch(pts, toy_model(), np.array([[0.5, 0.5]]), weights)
        with pytest.raises(ValueError):
            weight_pattern(0)


class TestGenerateCandidates:
    def counts(self, p, t=2000):
        # With a vanishing spread every Type II row sits on the clipped
        # surrogate-best point; the uniform (Type I) rows come first. The draw
        # must not share toy_data's seed, whose first uniforms are the data.
        data, model = toy_data(), toy_model()
        x_star = clip_to_domain(data.X[best_fit_index(data, model)], unit_box())
        state = ExploitState(0.0, p, 1e-12)
        cands = generate_candidates(
            data, unit_box(), state, model, t, np.random.default_rng(10)
        )
        assert cands.shape == (t, 2)
        at_star = np.all(np.abs(cands - x_star) <= 1e-9, axis=1)
        n2 = int(at_star.sum())
        assert not at_star[: t - n2].any() and at_star[t - n2 :].all()
        return t - n2, n2

    def test_p_one_all_uniform(self):
        n1, n2 = self.counts(1.0)
        assert (n1, n2) == (2000, 0)

    def test_small_p_all_gaussian(self):
        n1, n2 = self.counts(0.09)
        assert (n1, n2) == (0, 2000)

    def test_fraction_truncates_to_tenths(self):
        n1, n2 = self.counts(0.55)
        assert (n1, n2) == (1000, 1000)

    def test_all_points_inside_domain(self):
        dom = BoxDomain(np.array([-2.0, 1.0]), np.array([2.0, 4.0]))
        rng = np.random.default_rng(1)
        X = dom.sample_uniform(5, rng)
        data = EvalDataset(X, rng.normal(size=5))
        model = RbfSurrogate(dom.to_unit(X), rng.normal(size=5), 0.0, 0.0, dom)
        state = ExploitState(0.0, 0.35, 0.4)  # large spread forces clipping
        cands = generate_candidates(data, dom, state, model, 1500, rng)
        assert np.all(cands >= dom.lower) and np.all(cands <= dom.upper)

    def test_tiny_sigma_concentrates_on_best_fit_point(self):
        dom = unit_box()
        data = toy_data()
        model = toy_model()
        x_star = data.X[best_fit_index(data, model)]
        state = ExploitState(0.0, 0.0, 1e-12)
        cands = generate_candidates(data, dom, state, model, 500, np.random.default_rng(2))
        np.testing.assert_allclose(
            cands, np.tile(clip_to_domain(x_star, dom), (500, 1)), atol=1e-9
        )

    def test_deterministic(self):
        state = ExploitState(0.0, 0.5, 0.1)
        a = generate_candidates(
            toy_data(), unit_box(), state, toy_model(), 300, np.random.default_rng(3)
        )
        b = generate_candidates(
            toy_data(), unit_box(), state, toy_model(), 300, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("d", [2, 10])
    @pytest.mark.parametrize("p", [1.0, 0.35, 0.05])
    def test_equals_separate_draws_bitwise(self, d, p):
        # The pool as separate arrays: rng.uniform over the box, then x* +
        # rng.normal(0, 1) * spread clipped into the box, stacked.
        dom = BoxDomain(np.linspace(-3.0, 0.0, d), np.linspace(1.0, 7.0, d))
        rng = np.random.default_rng(d)
        X = dom.sample_uniform(8, rng)
        data = EvalDataset(X, rng.normal(size=8))
        model = RbfSurrogate(dom.to_unit(X), rng.normal(size=8), 0.0, 0.0, dom)
        state, t = ExploitState(0.0, p, 0.3), 100 * d
        x_star = X[best_fit_index(data, model)]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n1 = int(np.floor(np.floor(10.0 * p) / 10.0 * t + 0.5))
            uniform = rng.uniform(dom.lower, dom.upper, size=(n1, d))
            gauss = x_star + rng.normal(0.0, 1.0, size=(t - n1, d)) * (0.3 * dom.side_lengths)
            want = np.vstack([uniform, np.clip(gauss, dom.lower, dom.upper)])
            got = generate_candidates(data, dom, state, model, t, np.random.default_rng(seed))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSelectBatch:
    def test_weight_one_picks_surrogate_minimum(self):
        rng = np.random.default_rng(4)
        model = toy_model(4)
        pts = rng.uniform(0, 1, size=(50, 2))
        idx = select_batch(
            pts, model, rng.uniform(0, 1, size=(3, 2)), np.array([1.0])
        )
        g = predict_batch(model, pts)
        assert idx[0] == int(np.argmin(g))

    def test_weight_floor_prefers_distance(self):
        # With the response coefficient at the 0.3 floor and flat surrogate
        # values, only the distance score matters: farthest point wins.
        rng = np.random.default_rng(5)
        model = RbfSurrogate(np.array([[0.5, 0.5]]), np.array([0.0]), 0.0, 0.0, unit_box())
        pts = rng.uniform(0, 1, size=(40, 2))
        evaluated = np.array([[0.5, 0.5]])
        idx = select_batch(pts, model, evaluated, np.array([0.3]))
        dists = np.linalg.norm(pts - evaluated[0], axis=1)
        assert idx[0] == int(np.argmax(dists))

    def test_three_point_hand_case(self):
        # Candidates on a line, one evaluated point at the origin.
        pts = np.array([[0.1, 0.0], [0.5, 0.0], [0.9, 0.0]])
        model = toy_model(6)
        g = predict_batch(model, pts)
        evaluated = np.array([[0.0, 0.0]])
        weights = np.array([0.3, 1.0])
        idx = select_batch(pts, model, evaluated, weights)
        assert idx == oracle_select(pts, g, evaluated, weights)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(60):
            d = int(rng.integers(1, 4))
            t = int(rng.integers(2, 9))
            n_par = int(rng.integers(1, min(t, 4) + 1))
            model = toy_model(trial, d=d)
            pts = rng.uniform(0, 1, size=(t, d))
            evaluated = rng.uniform(0, 1, size=(int(rng.integers(1, 4)), d))
            weights = np.sort(rng.uniform(0.3, 1.0, size=n_par))
            g = predict_batch(model, pts)
            idx = select_batch(pts, model, evaluated, weights)
            assert idx == oracle_select(pts, g, evaluated, weights)

    def test_picks_are_distinct(self):
        rng = np.random.default_rng(8)
        model = toy_model(8)
        pts = rng.uniform(0, 1, size=(30, 2))
        idx = select_batch(pts, model, rng.uniform(0, 1, size=(2, 2)), weight_pattern(6))
        assert len(set(idx)) == 6

    def test_monotone_weight_effect(self):
        # The first pick under a larger weight never has a larger surrogate
        # value than the first pick under a smaller weight on the same pool.
        rng = np.random.default_rng(9)
        for trial in range(20):
            model = toy_model(trial + 100)
            pts = rng.uniform(0, 1, size=(60, 2))
            evaluated = rng.uniform(0, 1, size=(4, 2))
            g = predict_batch(model, pts)
            w1, w2 = sorted(rng.uniform(0.3, 1.0, size=2))
            picks = {}
            for w in (w1, w2):
                idx = select_batch(pts, model, evaluated, np.array([w]))
                picks[w] = idx[0]
            assert g[picks[w2]] <= g[picks[w1]] + 1e-12

    def test_pool_layout_does_not_change_the_picks(self):
        rng = np.random.default_rng(10)
        model = toy_model(10, d=3)
        pts = rng.uniform(0, 1, size=(200, 3))
        evaluated = rng.uniform(0, 1, size=(5, 3))
        want = select_batch(pts, model, evaluated, weight_pattern(8))
        # Fortran order, and every other row of a pool twice as long.
        for pool in (np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2]):
            assert select_batch(pool, model, evaluated, weight_pattern(8)) == want

    def test_weights_must_be_a_nonempty_vector(self):
        pts = np.random.default_rng(0).uniform(0, 1, size=(10, 2))
        for weights in (np.array([]), np.array([[0.3, 1.0]]), np.float64(0.5)):
            with pytest.raises(ValueError, match="nonempty 1-D"):
                select_batch(pts, toy_model(), np.array([[0.5, 0.5]]), weights)

    def test_pool_too_small_raises(self):
        model = toy_model()
        pts = np.array([[0.1, 0.1]])
        with pytest.raises(ValueError):
            select_batch(pts, model, np.array([[0.5, 0.5]]), weight_pattern(2))

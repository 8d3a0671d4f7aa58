from dataclasses import fields, replace

import numpy as np
import pytest

from prosrs.problem import (
    STREAM_NAMES,
    BoxDomain,
    EvalDataset,
    ExploitState,
    Objective,
    RunConfig,
    clip_to_domain,
    default_config,
    derive_streams,
    stream_seedseq,
)


def unit_square():
    return BoxDomain(np.zeros(2), np.ones(2))


class TestBoxDomain:
    def test_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            BoxDomain(np.zeros(2), np.ones(3))

    def test_rejects_empty_sides(self):
        with pytest.raises(ValueError):
            BoxDomain(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "lower,upper",
        [([-np.inf, 0.0], [np.inf, 1.0]), ([0.0, 0.0], [1.0, np.inf]), ([0.0, np.nan], [1.0, 1.0])],
    )
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            BoxDomain(np.array(lower), np.array(upper))

    def test_rejects_overflowing_side_lengths(self):
        # Each bound is finite, but upper - lower overflows to inf.
        with pytest.raises(ValueError, match="side length"):
            BoxDomain(np.array([-1e308, 0.0]), np.array([1e308, 1.0]))

    def test_rejects_sides_whose_squared_distances_overflow(self):
        # Sides of 1.04e285 are finite, but squared distances between points
        # of the box would reach 2e570.
        with pytest.raises(ValueError, match=r"side lengths \[1\.04\d*e\+285, 1\.04\d*e\+285\]"):
            BoxDomain(np.full(2, 1e300), np.full(2, 1e300 + 1e285))

    @pytest.mark.parametrize("factor,accepted", [(0.999, True), (1.001, False)])
    def test_squared_diagonal_limit(self, factor, accepted):
        # The limit: four times the squared diagonal is the largest double.
        side = factor * np.sqrt(np.finfo(float).max / (4.0 * 3))
        if accepted:
            assert BoxDomain(np.zeros(3), np.full(3, side)).dim == 3
        else:
            with pytest.raises(ValueError, match="too long"):
                BoxDomain(np.zeros(3), np.full(3, side))

    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_sample_uniform_equals_generator_uniform_bitwise(self, n):
        dom = BoxDomain(np.array([-5.0, 2.0, 0.1]), np.array([5.0, 4.0, 0.2]))
        want = np.random.default_rng(n).uniform(dom.lower, dom.upper, size=(n, 3))
        got = dom.sample_uniform(n, np.random.default_rng(n))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        out = np.empty((n, 3))
        assert dom.sample_uniform(n, np.random.default_rng(n), out=out) is out
        assert out.tobytes() == want.tobytes()

    def test_side_lengths(self):
        dom = BoxDomain(np.array([-3.0, -2.0]), np.array([3.0, 2.0]))
        assert dom.dim == 2
        np.testing.assert_allclose(dom.side_lengths, [6.0, 4.0])

    def test_unit_roundtrip(self):
        rng = np.random.default_rng(0)
        dom = BoxDomain(np.array([-5.0, 2.0, 0.1]), np.array([5.0, 4.0, 0.2]))
        x = dom.sample_uniform(50, rng)
        np.testing.assert_allclose(dom.from_unit(dom.to_unit(x)), x, atol=1e-12)
        assert np.all(dom.to_unit(x) >= 0) and np.all(dom.to_unit(x) <= 1)

    def test_containment(self):
        outer = unit_square()
        inner = BoxDomain(np.array([0.2, 0.0]), np.array([0.7, 1.0]))
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)
        assert outer.contains([0.0, 1.0])
        assert not outer.contains([1.1, 0.5])
        # A stack gives a row mask; rows on the boundary are inside.
        stack = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [0.5, 1.0 + 1e-12], [1.0, 1.0]])
        mask = outer.contains(stack)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, [True, True, True, False, True])

    def test_arrays_are_readonly(self):
        dom = unit_square()
        with pytest.raises(ValueError):
            dom.lower[0] = -1.0


class TestClipToDomain:
    def test_clamps_componentwise(self):
        np.testing.assert_allclose(
            clip_to_domain([1.5, 0.5], unit_square()), [1.0, 0.5]
        )

    def test_identity_inside(self):
        x = np.array([0.25, 0.75])
        np.testing.assert_array_equal(clip_to_domain(x, unit_square()), x)

    def test_corner(self):
        np.testing.assert_allclose(clip_to_domain([-2.0, -2.0], unit_square()), [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            clip_to_domain([0.5, 0.5, 0.5], unit_square())

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        dom = BoxDomain(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 5.0, 3.0]))
        for _ in range(100):
            x = rng.uniform(-10, 10, size=3)
            once = clip_to_domain(x, dom)
            np.testing.assert_array_equal(clip_to_domain(once, dom), once)

    def test_nearest_point_of_the_box(self):
        rng = np.random.default_rng(2)
        dom = BoxDomain(np.array([-1.0, 0.5]), np.array([1.0, 2.0]))
        for _ in range(50):
            x = rng.uniform(-4, 4, size=2)
            c = clip_to_domain(x, dom)
            z = dom.sample_uniform(200, rng)
            assert np.linalg.norm(c - x) <= np.linalg.norm(z - x, axis=1).min() + 1e-12

    @staticmethod
    def clip_cases():
        rng = np.random.default_rng(3)
        dom = BoxDomain(np.array([-1.0, 0.5, 2.0]), np.array([1.0, 2.0, 3.0]))
        yield "stack", rng.uniform(-4, 4, size=(500, 3)), dom
        yield "point", rng.uniform(-4, 4, size=3), dom
        walls = np.array([dom.lower, dom.upper, [dom.lower[0], dom.upper[1], 2.5]])
        yield "walls", walls, dom
        # Signed zeros on and across the walls of boxes bounded by 0.0 and -0.0.
        zeros = np.array([[a, b] for a in (0.0, -0.0, -1.0, 1.0) for b in (0.0, -0.0, -1.0, 1.0)])
        for lo, hi in (([0.0, -1.0], [1.0, 0.0]), ([-0.0, -1.0], [1.0, -0.0])):
            yield f"zeros{lo}{hi}", zeros, BoxDomain(np.array(lo), np.array(hi))

    def test_bit_identical_to_np_clip(self):
        for name, x, dom in self.clip_cases():
            want = np.clip(x, dom.lower, dom.upper)
            got = clip_to_domain(x, dom)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
            in_place = x.copy()
            assert clip_to_domain(in_place, dom, out=in_place) is in_place
            assert in_place.tobytes() == want.tobytes(), name
            assert not np.shares_memory(got, x), name


class TestEvalDataset:
    def test_order_preserved(self):
        data = EvalDataset(np.array([[0.0], [1.0], [2.0]]), np.array([3.0, 1.0, 2.0]))
        data = data.with_batch(np.array([[5.0]]), np.array([0.5]))
        np.testing.assert_array_equal(data.X[:, 0], [0.0, 1.0, 2.0, 5.0])
        np.testing.assert_array_equal(data.y, [3.0, 1.0, 2.0, 0.5])

    def test_restrict_to(self):
        data = EvalDataset(np.array([[0.1, 0.1], [0.9, 0.9], [0.4, 0.6]]),
                           np.array([1.0, 2.0, 3.0]))
        sub = data.restrict_to(BoxDomain(np.zeros(2), np.full(2, 0.5)))
        assert len(sub) == 1
        np.testing.assert_array_equal(sub.X[0], [0.1, 0.1])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EvalDataset(np.array([[0.0]]), np.array([np.nan]))
        with pytest.raises(ValueError):
            EvalDataset(np.array([[np.inf]]), np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            EvalDataset(np.zeros((3, 2)), np.zeros(2))

    def test_empty(self):
        data = EvalDataset(np.empty((0, 4)), np.empty(0))
        assert len(data) == 0 and data.dim == 4

    def test_holds_read_only_copies_and_leaves_the_callers_arrays_writable(self):
        X, y = np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([4.0, 5.0])
        data = EvalDataset(X, y)
        assert X.flags.writeable and y.flags.writeable
        assert not data.X.flags.writeable and not data.y.flags.writeable
        X[0, 0], y[0] = 9.0, 9.0
        np.testing.assert_array_equal(data.X, [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(data.y, [4.0, 5.0])


class TestExploitState:
    def test_validation(self):
        ExploitState(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            ExploitState(0.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            ExploitState(0.0, 1.5, 0.1)
        with pytest.raises(ValueError):
            ExploitState(0.0, 1.0, 0.0)


class TestDefaultConfig:
    def test_d10_npar12(self):
        cfg = default_config(10, 12)
        assert cfg.m_doe == 12
        assert cfg.c_fail == 2

    def test_d2_npar1(self):
        cfg = default_config(2, 1)
        assert cfg.m_doe == 3
        assert cfg.c_fail == 2

    def test_d7_npar2(self):
        assert default_config(7, 2).c_fail == 4

    def test_table_defaults(self):
        cfg = default_config(5, 3)
        assert cfg.s_init == ExploitState(0.0, 1.0, 0.1)
        assert cfg.sigma_crit == 0.025
        assert cfg.beta_init == 0.02
        assert cfg.beta_min == 0.01
        assert cfg.rho == 0.4
        assert cfg.r_resolution == 0.01
        assert cfg.delta_gamma == 2.0
        assert cfg.n_candidates_per_dim == 1000

    def test_m_doe_multiple_of_npar_and_at_least_three(self):
        for d in (1, 2, 7, 10):
            for n_par in (1, 2, 3, 5, 12):
                cfg = default_config(d, n_par)
                assert cfg.m_doe % n_par == 0
                assert cfg.m_doe >= 3

    def test_overrides(self):
        cfg = default_config(2, 4, n_iterations=7, seed=42, rho=0.5)
        assert cfg.n_iterations == 7 and cfg.seed == 42 and cfg.rho == 0.5

    def test_zero_iterations_allowed(self):
        assert default_config(2, 4, n_iterations=0).n_iterations == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            default_config(0, 1)
        with pytest.raises(ValueError):
            default_config(2, 4, beta_min=0.5)  # above beta_init

    def test_initial_design_must_allow_a_fit(self):
        # The first surrogate fit needs two evaluated points.
        with pytest.raises(ValueError, match="m_doe"):
            default_config(2, 1, m_doe=1)
        assert default_config(2, 1, m_doe=2).m_doe == 2

    def test_candidate_pool_must_fill_the_batch(self):
        # The pool holds n_candidates_per_dim * dim points, one pick per slot.
        with pytest.raises(ValueError, match="n_par"):
            default_config(1, 12, n_candidates_per_dim=5)
        with pytest.raises(ValueError, match="n_par"):
            default_config(3, 12, n_candidates_per_dim=3)
        assert default_config(3, 12, n_candidates_per_dim=4).n_par == 12
        assert default_config(1, 12, n_candidates_per_dim=12).n_par == 12
        # The standard pool of 1000 a dimension cannot fill 2000 slots, but
        # the config asked for is valid: it is validated once, as built.
        assert default_config(1, 2000, n_candidates_per_dim=3000).n_par == 2000

    def test_standard_defaults_are_the_fields(self):
        # Only dim, n_par, m_doe and c_fail have no default of their own.
        assert [f.name for f in fields(RunConfig)] == [
            "dim", "n_par", "n_iterations", "m_doe", "s_init", "sigma_crit", "beta_init",
            "beta_min", "rho", "r_resolution", "c_fail", "delta_gamma",
            "n_candidates_per_dim", "seed",
        ]
        assert RunConfig(dim=7, n_par=2, m_doe=4, c_fail=4) == default_config(7, 2)
        assert default_config(7, 2).n_iterations == 100 and default_config(7, 2).seed == 0

    def test_overrides_win_over_derived_fields(self):
        base = default_config(7, 2)
        assert (base.m_doe, base.c_fail) == (4, 4)
        for overrides in (
            {"m_doe": 10},
            {"c_fail": 1},
            {"dim": 3},
            {"dim": 12, "m_doe": 2, "c_fail": 7},
        ):
            cfg = default_config(7, 2, **overrides)
            assert {k: getattr(cfg, k) for k in overrides} == overrides
        # m_doe and c_fail derive from the arguments, not from an overridden dim.
        assert default_config(7, 2, dim=1).c_fail == 4
        # n_par is an argument of its own: the derived fields follow it, and
        # giving it a second time by keyword is refused.
        assert default_config(d=7, n_par=3) == replace(base, n_par=3, m_doe=3, c_fail=3)
        with pytest.raises(TypeError):
            default_config(7, 2, n_par=3)

    @pytest.mark.parametrize("d, n_par", [(1, 1), (2, 4), (7, 2), (10, 12)])
    def test_overrides_apply_as_a_replace_of_the_standard_config(self, d, n_par):
        override_sets = [
            {}, {"n_iterations": 7}, {"n_iterations": 0}, {"seed": 42}, {"rho": 0.5},
            {"rho": 0.9, "r_resolution": 0.2}, {"m_doe": 2}, {"m_doe": 24}, {"c_fail": 1},
            {"c_fail": 9}, {"dim": 1}, {"dim": 3}, {"dim": 10, "c_fail": 3},
            {"dim": 2, "m_doe": 12, "c_fail": 2}, {"s_init": ExploitState(-1.0, 0.5, 0.2)},
            {"s_init": ExploitState(0.0, 0.05, 0.3)}, {"sigma_crit": 0.09},
            {"beta_init": 0.5, "beta_min": 0.25}, {"beta_min": 0.02}, {"beta_init": 0.5},
            {"r_resolution": 0.1}, {"delta_gamma": 0.5}, {"delta_gamma": 4},
            {"n_candidates_per_dim": 20}, {"n_candidates_per_dim": 12},
            {"n_iterations": 80, "c_fail": 1, "r_resolution": 0.1, "beta_init": 0.5,
             "beta_min": 0.25},
            {"seed": 3, "n_iterations": 30, "rho": 0.2}, {"sigma_crit": 0.5},
            {"m_doe": 3, "c_fail": 2, "seed": 1}, {"n_candidates_per_dim": 1000, "seed": 0},
        ]
        base = default_config(d, n_par)
        for overrides in override_sets:
            assert default_config(d, n_par, **overrides) == replace(base, **overrides)
        # A set that makes the config invalid is refused, as by the replace.
        for overrides in ({"m_doe": 1}, {"beta_min": 0.5}, {"dim": 0}, {"c_fail": 0}):
            with pytest.raises(ValueError):
                default_config(d, n_par, **overrides)

    def test_s_init_must_be_an_exploit_state(self):
        for s_init in ([0.0, 1.0, 0.1], {"gamma": 0.0, "p": 1.0, "sigma": 0.1}):
            with pytest.raises(ValueError, match="s_init"):
                default_config(2, 1, s_init=s_init)


class TestObjective:
    def test_dimension_must_match_domain(self):
        with pytest.raises(ValueError):
            Objective(3, unit_square(), lambda x: 0.0)


class TestStreams:
    def test_reproducible(self):
        a = derive_streams(123)
        b = derive_streams(123)
        for name in a:
            assert a[name].random() == b[name].random()

    def test_streams_are_distinct(self):
        streams = derive_streams(0)
        draws = {name: gen.random() for name, gen in streams.items()}
        assert len(set(draws.values())) == len(draws)

    def test_seed_changes_everything(self):
        a = derive_streams(0)
        b = derive_streams(1)
        assert a["doe"].random() != b["doe"].random()

    def test_stream_seedseq_matches(self):
        gen = np.random.default_rng(stream_seedseq(7, "noise"))
        assert gen.random() == derive_streams(7)["noise"].random()

    def test_each_stream_is_the_master_seeds_child_at_its_position(self):
        for seed in (0, 7, 2**40):
            children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
            streams = derive_streams(seed)
            assert list(streams) == list(STREAM_NAMES)
            for name, child in zip(STREAM_NAMES, children):
                expected = np.random.default_rng(child).integers(0, 2**63, 4)
                assert np.array_equal(streams[name].integers(0, 2**63, 4), expected)
                own = np.random.default_rng(stream_seedseq(seed, name))
                assert np.array_equal(own.integers(0, 2**63, 4), expected)

import math

import numpy as np
import pytest

from prosrs.problem import BoxDomain, EvalDataset, ExploitState, default_config
from prosrs.zoomtree import (
    ZoomNode,
    ZoomTree,
    effective_n,
    max_zoom_level,
    restart_condition,
    update_state,
)


def box(lo, hi, d=None):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if d is not None:
        lo, hi = np.full(d, lo[0]), np.full(d, hi[0])
    return BoxDomain(lo, hi)


def node_with(points, values, domain, state=None, beta=0.02):
    return ZoomNode(
        EvalDataset(np.atleast_2d(points), values), domain,
        state or ExploitState(0.0, 1.0, 0.1), beta,
    )


class TestUpdateState:
    def cfg(self, d=2, n_par=1, **kw):
        return default_config(d, n_par, **kw)

    def test_p_decay(self):
        node = node_with([[0.5, 0.5]], [1.0], box(0, 1, 2))
        update_state(node, 16, iteration_failed=True, config=self.cfg())
        assert node.state.p == pytest.approx(0.25)
        assert node.state.sigma == 0.1 and node.state.gamma == 0.0
        assert node.fail_counter == 0

    def test_failure_streak_halves_sigma_and_drops_gamma(self):
        cfg = self.cfg()
        node = node_with([[0.5, 0.5]], [1.0], box(0, 1, 2), ExploitState(0.0, 0.05, 0.1))
        node.fail_counter = cfg.c_fail - 1
        update_state(node, 4, iteration_failed=True, config=cfg)
        assert node.state.sigma == pytest.approx(0.05)
        assert node.state.gamma == pytest.approx(-2.0)
        assert node.fail_counter == 0

    def test_success_resets_streak(self):
        cfg = self.cfg()
        node = node_with([[0.5, 0.5]], [1.0], box(0, 1, 2), ExploitState(0.0, 0.05, 0.1))
        node.fail_counter = cfg.c_fail - 1
        update_state(node, 4, iteration_failed=False, config=cfg)
        assert node.fail_counter == 0
        assert node.state.sigma == 0.1 and node.state.gamma == 0.0

    def test_counter_holds_below_threshold(self):
        cfg = self.cfg(d=8, n_par=2)  # c_fail = 4
        node = node_with([[0.5] * 8], [1.0], box(0, 1, 8), ExploitState(0.0, 0.01, 0.1))
        for expected in (1, 2, 3):
            update_state(node, 2, iteration_failed=True, config=cfg)
            assert node.fail_counter == expected
            assert node.state.sigma == 0.1
        update_state(node, 2, iteration_failed=True, config=cfg)
        assert node.fail_counter == 0
        assert node.state.sigma == pytest.approx(0.05)

    def test_boundary_p_exactly_point_one_decays(self):
        node = node_with([[0.5, 0.5]], [1.0], box(0, 1, 2), ExploitState(0.0, 0.1, 0.1))
        update_state(node, 4, iteration_failed=True, config=self.cfg())
        assert node.state.p == pytest.approx(0.05)
        assert node.fail_counter == 0


class TestEffectiveN:
    def test_all_points_in_one_quadrant(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.1], [0.05, 0.4]])
        data = EvalDataset(pts, np.zeros(4))
        assert effective_n(data, box(0, 1, 2)) == 1

    def test_one_point_per_quadrant(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]])
        data = EvalDataset(pts, np.zeros(4))
        assert effective_n(data, box(0, 1, 2)) == 4

    def test_one_dimensional_cells(self):
        pts = np.array([[0.05], [0.15], [0.45], [0.55], [0.95]])
        data = EvalDataset(pts, np.zeros(5))
        # 5 cells of width 0.2: indices 0, 0, 2, 2, 4 -> 3 occupied
        assert effective_n(data, box(0, 1)) == 3

    def test_upper_boundary_belongs_to_last_cell(self):
        pts = np.array([[1.0], [0.999]])
        data = EvalDataset(pts, np.zeros(2))
        assert effective_n(data, box(0, 1)) == 1

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 4))
            pts = rng.uniform(0, 1, size=(n, d))
            data = EvalDataset(pts, np.zeros(n))
            ne = effective_n(data, box(0, 1, d))
            assert 1 <= ne <= n

    def test_integer_root_is_not_inflated(self):
        # 8 points in 3-D must use 2 cells per dimension, not 3.
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 0.49, size=(8, 3))
        data = EvalDataset(pts, np.zeros(8))
        assert effective_n(data, box(0, 1, 3)) == 1

    @pytest.mark.parametrize("d", [63, 64])
    def test_high_dimension_matches_brute_force(self, d):
        # 40 points over 2 cells per dimension, drawn from 12 cell patterns
        # so that cells are shared; a flat cell index would need 2**d cells.
        rng = np.random.default_rng(d)
        patterns = rng.integers(0, 2, size=(12, d))
        cells = patterns[rng.integers(0, 12, size=40)]
        pts = (cells + rng.uniform(0, 1, size=(40, d))) / 2
        data = EvalDataset(pts, np.zeros(40))
        k = 2  # ceil(40 ** (1 / d))
        want = len({tuple(row) for row in np.clip(np.floor(pts * k), 0, k - 1).astype(int)})
        assert want == len({tuple(row) for row in cells})
        assert effective_n(data, box(0, 1, d)) == want


class TestZoomIn:
    def cfg(self):
        return default_config(2, 1)

    def tree(self, rng, n=40, state=ExploitState(0.0, 0.05, 0.01)):
        X = rng.uniform(0, 1, size=(n, 2))
        tree = ZoomTree(EvalDataset(X, rng.normal(size=n)), box(0, 1, 2), self.cfg())
        tree.root.state = state
        return tree

    def test_new_child_domain_is_clipped(self):
        tree = self.tree(np.random.default_rng(2))
        child = tree.zoom_in(np.array([0.9, 0.5]), self.cfg())
        np.testing.assert_allclose(child.omega.lower, [0.7, 0.3])
        np.testing.assert_allclose(child.omega.upper, [1.0, 0.7])
        assert child.zoom_level == 1
        assert child.beta == self.cfg().beta_init
        assert child.state == self.cfg().s_init
        assert child.parent is tree.root and tree.current is child
        assert tree.root.omega.contains_box(child.omega)

    def test_child_data_comes_from_archive(self):
        tree = self.tree(np.random.default_rng(3), 100)
        tree.zoom_in(np.array([0.5, 0.5]), self.cfg())
        # Recorded at the first child: in the archive, not in the root's data.
        tree.record_batch(np.array([[0.6, 0.6]]), np.array([-5.0]))
        assert -5.0 not in tree.root.data.y
        tree.current = tree.root
        child = tree.zoom_in(np.array([0.75, 0.75]), self.cfg())
        expect = tree.archive.restrict_to(child.omega)
        np.testing.assert_array_equal(child.data.X, expect.X)
        np.testing.assert_array_equal(child.data.y, expect.y)
        assert -5.0 in child.data.y

    def test_parent_state_resets(self):
        tree = self.tree(np.random.default_rng(4), state=ExploitState(-4.0, 0.02, 0.01))
        tree.root.fail_counter = 1
        tree.zoom_in(np.array([0.5, 0.5]), self.cfg())
        assert tree.root.state == self.cfg().s_init
        assert tree.root.fail_counter == 0

    def test_revisit_halves_beta_with_floor(self):
        tree = self.tree(np.random.default_rng(5))
        child = tree.zoom_in(np.array([0.5, 0.5]), self.cfg())
        tree.current = tree.root
        again = tree.zoom_in(np.array([0.5, 0.5]), self.cfg())
        assert again is child
        assert again.beta == pytest.approx(0.01)  # max(0.02/2, 0.01)
        tree.current = tree.root
        third = tree.zoom_in(np.array([0.5, 0.5]), self.cfg())
        assert third.beta == pytest.approx(0.01)  # floored
        assert len(tree.root.children) == 1

    def test_revisit_keeps_state(self):
        tree = self.tree(np.random.default_rng(6))
        child = tree.zoom_in(np.array([0.5, 0.5]), self.cfg())
        child.state = ExploitState(-2.0, 0.03, 0.05)
        child.fail_counter = 1
        tree.current = tree.root
        assert tree.zoom_in(np.array([0.5, 0.5]), self.cfg()) is child
        assert child.state == ExploitState(-2.0, 0.03, 0.05)
        assert child.fail_counter == 1

    def test_revisit_refreshes_data_from_archive(self):
        tree = self.tree(np.random.default_rng(6))
        child = tree.zoom_in(np.array([0.5, 0.5]), self.cfg())
        tree.current = tree.root
        tree.zoom_in(np.array([0.75, 0.75]), self.cfg())
        # Recorded at a sibling: in the archive, not in the root's data.
        tree.record_batch(np.array([[0.6, 0.6]]), np.array([-9.0]))
        assert -9.0 not in child.data.y and -9.0 not in tree.root.data.y
        tree.current = tree.root
        assert tree.zoom_in(np.array([0.4, 0.4]), self.cfg()) is child
        np.testing.assert_array_equal(child.data.y, tree.archive.restrict_to(child.omega).y)
        assert -9.0 in child.data.y

    def test_nearest_center_wins_in_overlap(self):
        tree = self.tree(np.random.default_rng(7))
        a = tree.zoom_in(np.array([0.45, 0.5]), self.cfg())
        tree.current = tree.root
        b = tree.zoom_in(np.array([0.66, 0.5]), self.cfg())
        assert a is not b
        # (0.58, 0.5) lies in both children; b's center (0.66, 0.5) is nearer.
        assert a.omega.contains([0.58, 0.5]) and b.omega.contains([0.58, 0.5])
        tree.current = tree.root
        chosen = tree.zoom_in(np.array([0.58, 0.5]), self.cfg())
        assert chosen is b

    def test_center_outside_domain_raises(self):
        tree = self.tree(np.random.default_rng(8))
        with pytest.raises(ValueError):
            tree.zoom_in(np.array([1.5, 0.5]), self.cfg())
        assert tree.current is tree.root and not tree.root.children


class TestRestartCondition:
    def child(self, length, n, d=1, root=None):
        root = root or box(0, 100, d)
        lo = np.full(d, 10.0)
        omega = BoxDomain(lo, lo + length)
        rng = np.random.default_rng(0)
        pts = rng.uniform(lo, lo + length, size=(n, d))
        node = ZoomNode(EvalDataset(pts, np.zeros(n)), omega, ExploitState(0.0, 1.0, 0.1), 0.02)
        return node, root

    def cfg(self, d=1):
        return default_config(d, 1)

    def test_fine_child_triggers(self):
        node, root = self.child(0.5, n=1)
        assert restart_condition(node, root, self.cfg()) is True

    def test_coarse_child_does_not(self):
        node, root = self.child(2.0, n=1)
        assert restart_condition(node, root, self.cfg()) is False

    def test_strict_inequality_at_threshold(self):
        # n = 1 so the threshold is side < r * root side = 1.0 exactly.
        node, root = self.child(1.0, n=1)
        assert restart_condition(node, root, self.cfg()) is False
        node, root = self.child(1.0 - 1e-9, n=1)
        assert restart_condition(node, root, self.cfg()) is True

    def test_every_dimension_must_pass(self):
        root = box(0, 100, 2)
        omega = BoxDomain(np.array([10.0, 10.0]), np.array([10.5, 90.0]))
        pts = np.array([[10.2, 50.0]])
        node = ZoomNode(EvalDataset(pts, [0.0]), omega, ExploitState(0.0, 1.0, 0.1), 0.02)
        assert restart_condition(node, root, self.cfg(2)) is False

    def test_more_data_makes_restart_easier(self):
        node, root = self.child(3.0, n=1)
        cfg = self.cfg()
        assert restart_condition(node, root, cfg) is False
        node, root = self.child(3.0, n=16)
        assert restart_condition(node, root, cfg) is True  # 3/16 < 1


class TestMaybeZoomOut:
    def family(self, beta):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, size=(30, 2))
        tree = ZoomTree(EvalDataset(X, rng.normal(size=30)), box(0, 1, 2), default_config(2, 1))
        child = tree.zoom_in(np.array([0.5, 0.5]), default_config(2, 1))
        child.beta = beta
        return tree, child

    def test_zero_probability_stays(self):
        tree, child = self.family(beta=1e-300)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert tree.maybe_zoom_out(rng) is False
            assert tree.current is child

    def test_probability_one_always_moves(self):
        tree, child = self.family(beta=1.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            tree.current = child
            assert tree.maybe_zoom_out(rng) is True
            assert tree.current is tree.root

    def test_parent_data_refreshed(self):
        tree, child = self.family(beta=1.0)
        # Recorded at the child: the archive grows, the root's data does not.
        tree.record_batch(np.array([[0.5, 0.5]]), np.array([-9.0]))
        assert len(tree.root.data) == len(tree.archive) - 1
        assert tree.maybe_zoom_out(np.random.default_rng(0)) is True
        assert tree.current is tree.root
        assert len(tree.root.data) == len(tree.archive)

    def test_frequency_matches_beta(self):
        tree, child = self.family(beta=0.02)
        rng = np.random.default_rng(123)
        hits = 0
        for _ in range(10000):
            tree.current = child
            hits += tree.maybe_zoom_out(rng)
        assert 0.015 <= hits / 10000 <= 0.025

    def test_root_stays_without_drawing(self):
        tree, child = self.family(beta=0.5)
        tree.current = tree.root
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert tree.maybe_zoom_out(rng) is False
        assert tree.current is tree.root
        assert rng.bit_generator.state == before


class TestTreeStructure:
    def test_depth_bound_constant(self):
        assert max_zoom_level(0.4, 0.01) == 6
        assert math.ceil(math.log(0.01) / math.log(0.4)) == 6

    def test_zoom_levels_and_containment_chain(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(10)
        X = rng.uniform(0, 1, size=(50, 2))
        tree = ZoomTree(EvalDataset(X, rng.normal(size=50)), box(0, 1, 2), cfg)
        center = np.array([0.31, 0.62])
        for level in range(1, 4):
            child = tree.zoom_in(center, cfg)
            assert child.zoom_level == level
            node = child
            while node.parent is not None:
                assert node.parent.omega.contains_box(node.omega)
                node = node.parent

    def test_record_batch_updates_archive_and_node(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(11)
        X = rng.uniform(0, 1, size=(10, 2))
        tree = ZoomTree(EvalDataset(X, rng.normal(size=10)), box(0, 1, 2), cfg)
        tree.record_batch(np.array([[0.5, 0.5]]), np.array([1.0]))
        assert len(tree.archive) == 11
        assert len(tree.current.data) == 11

    def test_node_ids_are_unique(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(12)
        X = rng.uniform(0, 1, size=(50, 2))
        tree = ZoomTree(EvalDataset(X, rng.normal(size=50)), box(0, 1, 2), cfg)
        ids = {tree.root.node_id}
        for center in ([0.2, 0.2], [0.8, 0.8], [0.2, 0.8]):
            child = tree.zoom_in(np.array(center), cfg)
            assert child.node_id not in ids
            ids.add(child.node_id)
            tree.current = tree.root

    def test_child_data_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            ZoomNode(
                EvalDataset(np.array([[2.0, 2.0]]), [0.0]), box(0, 1, 2),
                ExploitState(0.0, 1.0, 0.1), 0.02,
            )

    def test_state_components_never_increase_between_resets(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(13)
        node = ZoomNode(
            EvalDataset(rng.uniform(0, 1, size=(20, 2)), rng.normal(size=20)),
            box(0, 1, 2), cfg.s_init, cfg.beta_init,
        )
        prev = node.state
        for _ in range(200):
            update_state(node, int(rng.integers(1, 30)), bool(rng.random() < 0.7), cfg)
            assert node.state.p <= prev.p
            assert node.state.sigma <= prev.sigma
            assert node.state.gamma <= prev.gamma
            prev = node.state

    def test_beta_stays_within_bounds_under_revisits(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(14)
        X = rng.uniform(0, 1, size=(60, 2))
        tree = ZoomTree(EvalDataset(X, rng.normal(size=60)), box(0, 1, 2), cfg)
        for _ in range(10):
            tree.current = tree.root
            child = tree.zoom_in(np.array([0.5, 0.5]), cfg)
            assert cfg.beta_min <= child.beta <= cfg.beta_init

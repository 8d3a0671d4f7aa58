import math

import numpy as np
import pytest

from prosrs.problem import BoxDomain, EvalDataset, ExploitState, default_config
from prosrs.zoomtree import (
    ZoomNode,
    ZoomTree,
    effective_n,
    restart_condition,
    update_state,
)

from oracles import max_zoom_level
from test_golden import RUNS, SEEDS, run_fingerprint


def box(lo, hi, d=None):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if d is not None:
        lo, hi = np.full(d, lo[0]), np.full(d, hi[0])
    return BoxDomain(lo, hi)


def node_with(domain, state=None, beta=0.02):
    return ZoomNode(domain, state or ExploitState(0.0, 1.0, 0.1), beta)


class TestUpdateState:
    def cfg(self, d=2, n_par=1, **kw):
        return default_config(d, n_par, **kw)

    def test_p_decay(self):
        node = node_with(box(0, 1, 2))
        update_state(node, 16, iteration_failed=True, config=self.cfg())
        assert node.state.p == pytest.approx(0.25)
        assert node.state.sigma == 0.1 and node.state.gamma == 0.0
        assert node.fail_counter == 0

    def test_failure_streak_halves_sigma_and_drops_gamma(self):
        cfg = self.cfg()
        node = node_with(box(0, 1, 2), ExploitState(0.0, 0.05, 0.1))
        node.fail_counter = cfg.c_fail - 1
        update_state(node, 4, iteration_failed=True, config=cfg)
        assert node.state.sigma == pytest.approx(0.05)
        assert node.state.gamma == pytest.approx(-2.0)
        assert node.fail_counter == 0

    def test_success_resets_streak(self):
        cfg = self.cfg()
        node = node_with(box(0, 1, 2), ExploitState(0.0, 0.05, 0.1))
        node.fail_counter = cfg.c_fail - 1
        update_state(node, 4, iteration_failed=False, config=cfg)
        assert node.fail_counter == 0
        assert node.state.sigma == 0.1 and node.state.gamma == 0.0

    def test_counter_holds_below_threshold(self):
        cfg = self.cfg(d=8, n_par=2)  # c_fail = 4
        node = node_with(box(0, 1, 8), ExploitState(0.0, 0.01, 0.1))
        for expected in (1, 2, 3):
            update_state(node, 2, iteration_failed=True, config=cfg)
            assert node.fail_counter == expected
            assert node.state.sigma == 0.1
        update_state(node, 2, iteration_failed=True, config=cfg)
        assert node.fail_counter == 0
        assert node.state.sigma == pytest.approx(0.05)

    def test_boundary_p_exactly_point_one_decays(self):
        node = node_with(box(0, 1, 2), ExploitState(0.0, 0.1, 0.1))
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
        tree = ZoomTree(box(0, 1, 2), self.cfg())
        tree.record_batch(rng.uniform(0, 1, size=(n, 2)), rng.normal(size=n))
        tree.root.state = state
        return tree

    def test_new_child_domain_is_clipped(self):
        tree = self.tree(np.random.default_rng(2))
        child = tree.zoom_in(np.array([0.9, 0.5]))
        np.testing.assert_allclose(child.omega.lower, [0.7, 0.3])
        np.testing.assert_allclose(child.omega.upper, [1.0, 0.7])
        assert child.zoom_level == 1
        assert child.beta == self.cfg().beta_init
        assert child.state == self.cfg().s_init
        assert child.parent is tree.root and tree.current is child
        assert tree.root.omega.contains_box(child.omega)

    def test_child_data_comes_from_archive(self):
        tree = self.tree(np.random.default_rng(3), 100)
        tree.zoom_in(np.array([0.5, 0.5]))
        # Recorded at the first child, and outside the second child's box:
        # the new child's data is drawn from the archive, not carried over.
        tree.record_batch(np.array([[0.6, 0.6]]), np.array([-5.0]))
        tree.record_batch(np.array([[0.35, 0.35]]), np.array([-6.0]))
        assert -5.0 in tree.data.y and -6.0 in tree.data.y
        tree.current = tree.root
        child = tree.zoom_in(np.array([0.75, 0.75]))
        expect = tree.archive.restrict_to(child.omega)
        np.testing.assert_array_equal(tree.data.X, expect.X)
        np.testing.assert_array_equal(tree.data.y, expect.y)
        assert -5.0 in tree.data.y and -6.0 not in tree.data.y

    def test_parent_state_resets(self):
        tree = self.tree(np.random.default_rng(4), state=ExploitState(-4.0, 0.02, 0.01))
        tree.root.fail_counter = 1
        tree.zoom_in(np.array([0.5, 0.5]))
        assert tree.root.state == self.cfg().s_init
        assert tree.root.fail_counter == 0

    def test_revisit_halves_beta_with_floor(self):
        tree = self.tree(np.random.default_rng(5))
        child = tree.zoom_in(np.array([0.5, 0.5]))
        tree.current = tree.root
        again = tree.zoom_in(np.array([0.5, 0.5]))
        assert again is child
        assert again.beta == pytest.approx(0.01)  # max(0.02/2, 0.01)
        tree.current = tree.root
        third = tree.zoom_in(np.array([0.5, 0.5]))
        assert third.beta == pytest.approx(0.01)  # floored
        assert len(tree.root.children) == 1

    def test_revisit_keeps_state(self):
        tree = self.tree(np.random.default_rng(6))
        child = tree.zoom_in(np.array([0.5, 0.5]))
        child.state = ExploitState(-2.0, 0.03, 0.05)
        child.fail_counter = 1
        tree.current = tree.root
        assert tree.zoom_in(np.array([0.5, 0.5])) is child
        assert child.state == ExploitState(-2.0, 0.03, 0.05)
        assert child.fail_counter == 1

    def test_revisit_refreshes_data_from_archive(self):
        tree = self.tree(np.random.default_rng(6))
        child = tree.zoom_in(np.array([0.5, 0.5]))
        before = len(tree.data)
        tree.current = tree.root
        tree.zoom_in(np.array([0.75, 0.75]))
        # Recorded at a sibling, inside the first child's box too.
        tree.record_batch(np.array([[0.6, 0.6]]), np.array([-9.0]))
        tree.current = tree.root
        assert tree.zoom_in(np.array([0.4, 0.4])) is child
        expect = tree.archive.restrict_to(child.omega)
        np.testing.assert_array_equal(tree.data.X, expect.X)
        np.testing.assert_array_equal(tree.data.y, expect.y)
        assert -9.0 in tree.data.y and len(tree.data) == before + 1

    def test_nearest_center_wins_in_overlap(self):
        tree = self.tree(np.random.default_rng(7))
        a = tree.zoom_in(np.array([0.45, 0.5]))
        tree.current = tree.root
        b = tree.zoom_in(np.array([0.66, 0.5]))
        assert a is not b
        # (0.58, 0.5) lies in both children; b's center (0.66, 0.5) is nearer.
        assert a.omega.contains([0.58, 0.5]) and b.omega.contains([0.58, 0.5])
        tree.current = tree.root
        chosen = tree.zoom_in(np.array([0.58, 0.5]))
        assert chosen is b

    def test_child_that_rounds_to_zero_width_is_not_made(self):
        # A root 2 ulps wide on the first axis: the child's bounds round to
        # the zoom center there, so no child is made and nothing changes.
        lo = np.array([1.0, 0.0])
        tree = ZoomTree(BoxDomain(lo, np.array([1.0 + 2 * 2.0**-52, 1.0])), self.cfg())
        tree.root.state = ExploitState(-4.0, 0.02, 0.01)
        assert tree.zoom_in(np.array([1.0 + 2.0**-52, 0.5])) is None
        assert tree.current is tree.root and not tree.root.children
        assert tree.root.state == ExploitState(-4.0, 0.02, 0.01)

    def test_center_outside_domain_raises(self):
        tree = self.tree(np.random.default_rng(8))
        with pytest.raises(ValueError):
            tree.zoom_in(np.array([1.5, 0.5]))
        assert tree.current is tree.root and not tree.root.children


class TestRestartCondition:
    def child(self, length, n, d=1, root=None):
        root = root or box(0, 100, d)
        lo = np.full(d, 10.0)
        return BoxDomain(lo, lo + length), n, root

    def cfg(self, d=1):
        return default_config(d, 1)

    def test_fine_child_triggers(self):
        omega, n, root = self.child(0.5, n=1)
        assert restart_condition(omega, n, root, self.cfg()) is True

    def test_coarse_child_does_not(self):
        omega, n, root = self.child(2.0, n=1)
        assert restart_condition(omega, n, root, self.cfg()) is False

    def test_strict_inequality_at_threshold(self):
        # n = 1 so the threshold is side < r * root side = 1.0 exactly.
        omega, n, root = self.child(1.0, n=1)
        assert restart_condition(omega, n, root, self.cfg()) is False
        omega, n, root = self.child(1.0 - 1e-9, n=1)
        assert restart_condition(omega, n, root, self.cfg()) is True

    def test_every_dimension_must_pass(self):
        root = box(0, 100, 2)
        omega = BoxDomain(np.array([10.0, 10.0]), np.array([10.5, 90.0]))
        assert restart_condition(omega, 1, root, self.cfg(2)) is False

    def test_more_data_makes_restart_easier(self):
        omega, n, root = self.child(3.0, n=1)
        cfg = self.cfg()
        assert restart_condition(omega, n, root, cfg) is False
        omega, n, root = self.child(3.0, n=16)
        assert restart_condition(omega, n, root, cfg) is True  # 3/16 < 1


class TestMaybeZoomOut:
    def family(self, beta):
        rng = np.random.default_rng(9)
        tree = ZoomTree(box(0, 1, 2), default_config(2, 1))
        tree.record_batch(rng.uniform(0, 1, size=(30, 2)), rng.normal(size=30))
        child = tree.zoom_in(np.array([0.5, 0.5]))
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
        tree.record_batch(np.array([[0.5, 0.5]]), np.array([-9.0]))
        assert len(tree.data) < len(tree.archive)
        assert tree.maybe_zoom_out(np.random.default_rng(0)) is True
        assert tree.current is tree.root
        np.testing.assert_array_equal(tree.data.X, tree.archive.X)
        np.testing.assert_array_equal(tree.data.y, tree.archive.y)

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
        tree = ZoomTree(box(0, 1, 2), cfg)
        tree.record_batch(rng.uniform(0, 1, size=(50, 2)), rng.normal(size=50))
        center = np.array([0.31, 0.62])
        for level in range(1, 4):
            child = tree.zoom_in(center)
            assert child.zoom_level == level
            node = child
            while node.parent is not None:
                assert node.parent.omega.contains_box(node.omega)
                node = node.parent

    def test_record_batch_updates_archive_and_node(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(11)
        tree = ZoomTree(box(0, 1, 2), cfg)
        tree.record_batch(rng.uniform(0, 1, size=(10, 2)), rng.normal(size=10))
        tree.record_batch(np.array([[0.5, 0.5]]), np.array([1.0]))
        assert len(tree.archive) == 11
        assert len(tree.data) == 11
        # At a child, a batch lands in both the archive and the child's data.
        tree.zoom_in(np.array([0.5, 0.5]))
        n = len(tree.data)
        tree.record_batch(np.array([[0.45, 0.55]]), np.array([2.0]))
        assert len(tree.archive) == 12 and len(tree.data) == n + 1
        np.testing.assert_array_equal(tree.data.X[-1], [0.45, 0.55])

    def test_node_ids_are_unique(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(12)
        tree = ZoomTree(box(0, 1, 2), cfg)
        tree.record_batch(rng.uniform(0, 1, size=(50, 2)), rng.normal(size=50))
        ids = {tree.root.node_id}
        for center in ([0.2, 0.2], [0.8, 0.8], [0.2, 0.8]):
            child = tree.zoom_in(np.array(center))
            assert child.node_id not in ids
            ids.add(child.node_id)
            tree.current = tree.root

    def test_design_batches_build_the_root_data(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(0, 1, size=(7, 2))
        y = rng.normal(size=7)
        tree = ZoomTree(box(0, 1, 2), default_config(2, 3))
        for i in range(0, 7, 3):
            tree.record_batch(X[i : i + 3], y[i : i + 3])
        whole = EvalDataset(X, y)
        for data in (tree.archive, tree.data):
            np.testing.assert_array_equal(data.X, whole.X)
            np.testing.assert_array_equal(data.y, whole.y)
        assert tree.current is tree.root

    def test_restart_starts_an_empty_root(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(16)
        tree = ZoomTree(box(0, 1, 2), cfg)
        tree.record_batch(rng.uniform(0, 1, size=(30, 2)), rng.normal(size=30))
        old_root = tree.root
        tree.zoom_in(np.array([0.3, 0.3]))
        last = tree.zoom_in(np.array([0.3, 0.3]))
        tree.restart()
        assert len(tree.archive) == 0 and len(tree.data) == 0
        assert tree.current is tree.root and tree.root is not old_root
        assert tree.root.parent is None and not tree.root.children
        assert tree.root.zoom_level == 0
        assert tree.root.state == cfg.s_init and tree.root.beta == cfg.beta_init
        assert tree.root.node_id == last.node_id + 1

    def test_state_components_never_increase_between_resets(self):
        cfg = default_config(2, 1)
        rng = np.random.default_rng(13)
        node = ZoomNode(box(0, 1, 2), cfg.s_init, cfg.beta_init)
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
        tree = ZoomTree(box(0, 1, 2), cfg)
        tree.record_batch(rng.uniform(0, 1, size=(60, 2)), rng.normal(size=60))
        for _ in range(10):
            tree.current = tree.root
            child = tree.zoom_in(np.array([0.5, 0.5]))
            assert cfg.beta_min <= child.beta <= cfg.beta_init


def test_data_is_the_archive_inside_the_current_box_after_every_batch(monkeypatch):
    # The golden Dropwave2, GoldsteinPrice2 and Schaffer2 override runs, which
    # between them zoom in, zoom out, restart, and restart after a zoom-out:
    # after every recorded batch the current data is the archive restricted to
    # the current box, bit for bit.
    record_batch = ZoomTree.record_batch
    levels = []

    def checked(tree, X, y):
        record_batch(tree, X, y)
        want = tree.archive.restrict_to(tree.current.omega)
        for got, expect in ((tree.data.X, want.X), (tree.data.y, want.y)):
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes()
        assert np.all(tree.current.omega.contains(tree.data.X))
        levels.append(tree.current.zoom_level)

    monkeypatch.setattr(ZoomTree, "record_batch", checked)
    events = []
    for name, n_par, overrides in RUNS:
        if name in ("Dropwave2", "GoldsteinPrice2", "Schaffer2"):
            for seed in SEEDS:
                events += run_fingerprint(name, n_par, seed, overrides)["events"]
    assert {"zoom_in", "zoom_out", "restart"} <= set(events)
    assert len(levels) == len(events)  # one recorded batch per log row
    assert max(levels) > 0  # some batches were recorded at a child

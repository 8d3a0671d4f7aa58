import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from prosrs import _kernels


class TestPublicWrappers:
    def test_min_dists_values(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        refs = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(_kernels.min_dists(pts, refs), [1.0, np.hypot(3, 3)])

    def test_update_shrinks_only(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3))
        cur = np.full(50, 2.0)
        out = _kernels.update_min_dists(cur, pts, np.zeros(3))
        assert np.all(out <= cur)
        expect = np.minimum(2.0, np.linalg.norm(pts, axis=1))
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_multiquadric_diagonal_is_one(self):
        a = np.random.default_rng(1).normal(size=(10, 4))
        m = _kernels.multiquadric_matrix(a, a)
        np.testing.assert_allclose(np.diag(m), 1.0)
        assert np.all(m >= 1.0)


class TestNumpyMinDistsBlocks:
    B = _kernels.BLOCK_ROWS

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 3 * B + 7])
    def test_matches_dense_min_bitwise(self, rows):
        rng = np.random.default_rng(rows)
        pts, refs = rng.normal(size=(rows, 7)), rng.normal(size=(53, 7))
        np.testing.assert_array_equal(
            _kernels.min_dists(pts, refs), cdist(pts, refs).min(axis=1)
        )

    def test_peak_memory_does_not_grow_with_rows(self):
        # A dense 100 000 x 400 distance matrix alone would take 305 MiB.
        rng = np.random.default_rng(0)
        pts, refs = rng.uniform(size=(100_000, 10)), rng.uniform(size=(400, 10))
        tracemalloc.start()
        try:
            _kernels.min_dists(pts, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


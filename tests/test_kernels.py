import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from prosrs import _kernels


def random_case(seed, t=137, n=29, d=6):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(t, d)), rng.normal(size=(n, d))


@pytest.mark.skipif(_kernels.NUMBA_IMPLS is None, reason="numba not installed")
class TestBackendsAgree:
    def test_min_dists(self):
        for seed in range(5):
            a, b = random_case(seed)
            np.testing.assert_allclose(
                _kernels.NUMBA_IMPLS["min_dists"](a, b),
                _kernels.NUMPY_IMPLS["min_dists"](a, b),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_update_min_dists(self):
        for seed in range(5):
            a, b = random_case(seed)
            cur = _kernels.NUMPY_IMPLS["min_dists"](a, b)
            ref = np.random.default_rng(seed + 100).normal(size=a.shape[1])
            np.testing.assert_allclose(
                _kernels.NUMBA_IMPLS["update_min_dists"](cur, a, ref),
                _kernels.NUMPY_IMPLS["update_min_dists"](cur, a, ref),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_multiquadric(self):
        for seed in range(5):
            a, b = random_case(seed, t=40, n=40)
            np.testing.assert_allclose(
                _kernels.NUMBA_IMPLS["multiquadric_matrix"](a, b),
                _kernels.NUMPY_IMPLS["multiquadric_matrix"](a, b),
                rtol=1e-12,
                atol=1e-12,
            )


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
            _kernels.NUMPY_IMPLS["min_dists"](pts, refs), cdist(pts, refs).min(axis=1)
        )

    def test_peak_memory_does_not_grow_with_rows(self):
        # A dense 100 000 x 400 distance matrix alone would take 305 MiB.
        rng = np.random.default_rng(0)
        pts, refs = rng.uniform(size=(100_000, 10)), rng.uniform(size=(400, 10))
        tracemalloc.start()
        try:
            _kernels.NUMPY_IMPLS["min_dists"](pts, refs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


def test_env_flag_disables_numba():
    code = (
        "import os; os.environ['PROSRS_NUMBA'] = '0'; "
        "from prosrs import _kernels; "
        "assert not _kernels.NUMBA_ENABLED; "
        "import numpy as np; "
        "d = _kernels.min_dists(np.zeros((2, 2)), np.ones((1, 2))); "
        "print(float(d[0]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert abs(float(out.stdout.strip()) - np.sqrt(2)) < 1e-12

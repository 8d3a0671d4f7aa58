import sys
import threading
import tracemalloc
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from prosrs import _kernels
from prosrs.benchmarks import BenchmarkProblem
from prosrs.cli import model_error_trial
from prosrs.engine import run_prosrs
from prosrs.problem import BoxDomain, EvaluationError, Objective, default_config
from prosrs.surrogate import RbfSurrogate, predict_batch


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


def multiquadric_by_definition(a, b):
    return np.sqrt(1.0 + ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))


class TestMultiquadricProduct:
    @pytest.mark.parametrize("d", [1, 2, 10, 64])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (1, 50), (40, 60)])
    def test_matches_definition(self, d, rows, cols):
        # Unit-cube points, as every production caller passes; the last two
        # pairings hold zero distances, on the diagonal and between copies.
        rng = np.random.default_rng(100 * d + rows)
        a, b = rng.uniform(size=(rows, d)), rng.uniform(size=(cols, d))
        for x, y in ((a, b), (a, a), (np.vstack([b, b]), b)):
            want = multiquadric_by_definition(x, y)
            got = _kernels.multiquadric_matrix(x, y)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_prebuilt_factor_and_buffers_give_the_same_bits(self):
        rng = np.random.default_rng(7)
        a, b = rng.uniform(size=(30, 5)), rng.uniform(size=(11, 5))
        want = _kernels.multiquadric_matrix(a, b)
        p, out = np.empty((30, 7)), np.empty((30, 11))
        got = _kernels.multiquadric_matrix(a, q=_kernels.multiquadric_factor(b), p=p, out=out)
        assert got is out
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [2, 10])
    def test_update_from_nothing_equals_min_dists_bitwise(self, d):
        # A candidate's distance to a picked point rounds as its distance to
        # an evaluated point does.
        rng = np.random.default_rng(d)
        t = 3077
        pts, ref = rng.uniform(size=(t, d)), rng.uniform(size=d)
        np.testing.assert_array_equal(
            _kernels.update_min_dists(np.full(t, np.inf), pts, ref),
            _kernels.min_dists(pts, ref[None]),
        )


def layouts(a):
    """``a`` in C order, in Fortran order, and as every other row of a stack
    twice as long."""
    return (a, np.asfortranarray(a), np.repeat(a, 2, axis=0)[::2])


class TestInputLayouts:
    """The kernels read their inputs as given, copying nothing, and give the
    same bits whatever the inputs' layout."""

    def test_multiquadric_matrix(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(size=(70, 6)), rng.uniform(size=(13, 6))
        want = _kernels.multiquadric_matrix(a, b).tobytes()
        for x in layouts(a):
            for y in layouts(b):
                assert _kernels.multiquadric_matrix(x, y).tobytes() == want
                q = _kernels.multiquadric_factor(y)
                assert _kernels.multiquadric_matrix(x, q=q).tobytes() == want

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_update_min_dists(self, d):
        # The new point as (d,), as (1, d), and as a strided (1, d) view.
        rng = np.random.default_rng(d)
        points, new_ref = rng.uniform(size=(500, d)), rng.uniform(size=d)
        current = rng.uniform(0.0, 0.5, size=500)
        kept = current.copy()
        want = _kernels.update_min_dists(current, points, new_ref).tobytes()
        for p in layouts(points):
            for c in (current, np.repeat(current, 2)[::2]):
                for ref in (new_ref, new_ref[None], np.repeat(new_ref[None], 2, axis=0)[::2]):
                    assert _kernels.update_min_dists(c, p, ref).tobytes() == want
        assert current.tobytes() == kept.tobytes()

    def test_predict_batch_values_unit_rows_and_nearest_distances(self):
        # 40 centres put 3264 rows in a block, so 7000 rows span three.
        rng = np.random.default_rng(5)
        domain = BoxDomain(np.array([-2.0, 0.0, 1.0]), np.array([3.0, 0.5, 9.0]))
        centers, coefficients = rng.uniform(size=(40, 3)), rng.normal(size=40)
        X = domain.sample_uniform(7000, rng)

        def score(centers, X):
            model = RbfSurrogate(centers, coefficients, 0.0, 0.0, domain)
            unit, nearest = np.empty(X.shape), np.empty(len(X))
            g = predict_batch(model, X, unit=unit, nearest=nearest)
            assert predict_batch(model, X).tobytes() == g.tobytes()
            return [g.tobytes(), unit.tobytes(), nearest.tobytes()]

        with _kernels.one_blas_thread():
            want = score(centers, X)
            for c in layouts(centers):
                for x in layouts(X):
                    assert score(c, x) == want


def cdist_rows(a, b):
    """scipy's squared distance between each row of ``a`` and the matching
    row of ``b``, one pair at a time."""
    return np.array([cdist(x[None], y[None], "sqeuclidean")[0, 0] for x, y in zip(a, b)])


class TestSquaredDistances:
    """``squared_distances`` is scipy's sqeuclidean bit for bit, in every
    layout that its callers pass."""

    @pytest.mark.parametrize("d", [1, 2, 7, 10, 20])
    def test_stack_against_one_point(self, d):
        # update_min_dists passes the point as (d,), zoom_in too; (1, d)
        # broadcasts the same way.
        rng = np.random.default_rng(d)
        pts, ref = rng.normal(size=(300, d)), rng.normal(size=d)
        want = cdist(pts, ref[None], "sqeuclidean")[:, 0]
        for point in (ref, ref[None]):
            got = _kernels.squared_distances(pts, point)
            assert got.shape == (300,)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [1, 2, 10, 20])
    def test_row_pairs_in_any_layout(self, d):
        # C order, Fortran order, and every other row of a stack twice as
        # long, against C-ordered and strided partners.
        rng = np.random.default_rng(10 + d)
        a, b = rng.uniform(-3, 3, size=(2, 50, d))
        want = cdist_rows(a, b)
        for x in (a, np.asfortranarray(a), np.repeat(a, 2, axis=0)[::2]):
            for y in (b, np.repeat(b, 3, axis=0)[::3]):
                np.testing.assert_array_equal(_kernels.squared_distances(x, y), want)

    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_rows_against_every_ref(self, d):
        # min_dists' layout: a block of rows as (k, 1, d) against all (m, d)
        # refs, the rows in C order, Fortran order, and every other row of a
        # stack twice as long.
        rng = np.random.default_rng(30 + d)
        pts, refs = rng.uniform(-3, 3, size=(40, d)), rng.uniform(-3, 3, size=(17, d))
        want = cdist(pts, refs, "sqeuclidean")
        for x in (pts, np.asfortranarray(pts), np.repeat(pts, 2, axis=0)[::2]):
            got = _kernels.squared_distances(x[:, None, :], refs)
            assert got.shape == (40, 17)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m,d", [(2, 1), (7, 3), (12, 10)])
    def test_design_stacks_equal_pdist(self, m, d):
        # The maximin design's layout: designs laid out (design, axis,
        # point), the pairs gathered along the points and viewed as
        # (design, pair, axis).
        rng = np.random.default_rng(m)
        by_axis = rng.uniform(size=(5, d, m))
        first, second = np.triu_indices(m, 1)
        a, b = by_axis[:, :, first], by_axis[:, :, second]
        got = _kernels.squared_distances(a.transpose(0, 2, 1), b.transpose(0, 2, 1))
        for design, pairs in zip(by_axis.transpose(0, 2, 1), got):
            np.testing.assert_array_equal(pairs, pdist(design, "sqeuclidean"))


@pytest.mark.parametrize("cols", [1, 37, 400, 2049])
@pytest.mark.parametrize("rows", [0, 1, 2, 64, 65, 129, 40_001])
def test_row_blocks_follow_the_cell_budget(rows, cols):
    blocks = _kernels.row_blocks(rows, cols)
    size = max(64, _kernels.BASIS_CELLS // cols // 64 * 64)
    assert size % 64 == 0 and (size == 64 or size * cols <= _kernels.BASIS_CELLS)
    # In order and covering every row, each block of the budget's row count
    # except the last, which holds the rest, a one-row rest joining it.
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(rows))
    lengths = [b.stop - b.start for b in blocks]
    assert all(n == size for n in lengths[:-1])
    if rows:
        assert 1 <= lengths[-1] <= size or (lengths[-1] == size + 1 and rows > 1)
        assert lengths[-1] > 1 or rows == 1


class TestNumpyMinDistsBlocks:
    # Rows of one min_dists block against 53 refs.
    S = _kernels.DIST_CELLS // 53

    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 3079, S - 1, S, S + 1])
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


def cdist_min(points, refs):
    """The oracle: the smallest of scipy's squared distances, square-rooted."""
    return np.sqrt(cdist(points, refs, "sqeuclidean").min(axis=1))


def near_tie_case(d, n_points=40, seed=0):
    """Query points far apart, each with six refs of its own at distances that
    are equal in exact arithmetic (the same offset reversed, rotated or
    negated) or an ulp apart, so that computed squared distances tie or
    differ in their last bits; the product form cannot order these."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-100, 100, size=(n_points, d))
    offsets = rng.uniform(0.5, 1.5, size=(n_points, d))
    groups = [
        p + np.array([o, -o, o[::-1], np.roll(o, 1), o * (1 + 2.0**-52), o * (1 - 2.0**-53)])
        for p, o in zip(points, offsets)
    ]
    refs = np.vstack(groups)
    return points, refs[rng.permutation(len(refs))]


class TestNearTies:
    @pytest.mark.parametrize("d", [1, 2, 3, 10, 20])
    def test_min_dists_equals_cdist_on_near_ties(self, d):
        points, refs = near_tie_case(d)
        sq = cdist(points, refs, "sqeuclidean")
        # The case holds real near ties: on some rows the nearest two refs
        # differ in their last bits only.
        top2 = np.sort(sq, axis=1)[:, :2]
        gaps = (top2[:, 1] - top2[:, 0]) / top2[:, 0]
        assert np.any((gaps > 0) & (gaps < 1e-14))
        np.testing.assert_array_equal(_kernels.min_dists(points, refs), cdist_min(points, refs))

    @pytest.mark.parametrize("d", [1, 20])
    def test_one_row_blocks(self, d):
        points, refs = near_tie_case(d, n_points=6)
        with mock.patch.object(_kernels, "DIST_CELLS", 1):
            got = _kernels.min_dists(points, refs)
        np.testing.assert_array_equal(got, cdist_min(points, refs))
        np.testing.assert_array_equal(
            _kernels.min_dists(points[2], refs), cdist_min(points[2:3], refs)
        )

    @pytest.mark.parametrize("d", [1, 2, 10, 20])
    def test_duplicate_refs_and_zero_distances(self, d):
        rng = np.random.default_rng(d)
        refs = rng.uniform(size=(30, d))
        refs = np.vstack([refs, refs[::3], refs[:1]])
        on_refs = refs[::2]
        points = np.vstack([on_refs, rng.uniform(size=(50, d))])
        got = _kernels.min_dists(points, refs)
        np.testing.assert_array_equal(got, cdist_min(points, refs))
        assert np.all(got[: len(on_refs)] == 0.0)

    @pytest.mark.parametrize("d", [1, 2, 10, 20])
    def test_update_min_dists_equals_cdist_on_near_ties(self, d):
        points, refs = near_tie_case(d, n_points=1)
        new_ref = points[0]
        new = np.sqrt(cdist(refs, new_ref[None], "sqeuclidean")[:, 0])
        # Current distances equal to, or an ulp either side of, the new ones.
        current = new * (1 + np.resize([-(2.0**-52), 0.0, 2.0**-52], len(new)))
        want = np.minimum(current, new)
        # C order, Fortran order, and every other row of a pool twice as long.
        for layout in (refs, np.asfortranarray(refs), np.repeat(refs, 2, axis=0)[::2]):
            np.testing.assert_array_equal(_kernels.update_min_dists(current, layout, new_ref), want)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_min_dists_equals_cdist_on_lattice_points(self, data):
        # Coordinates on a coarse grid of inexact decimals give exact and
        # near ties; a small cell budget splits the rows into uneven blocks.
        d = data.draw(st.integers(1, 6), label="d")
        grid = st.integers(-5, 5).map(lambda k: 0.1 * k)
        points = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 40)), d), elements=grid))
        refs = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 12)), d), elements=grid))
        with mock.patch.object(_kernels, "DIST_CELLS", data.draw(st.integers(1, 100))):
            got = _kernels.min_dists(points, refs)
        np.testing.assert_array_equal(got, cdist_min(points, refs))

    def test_empty_refs_raise(self):
        with pytest.raises(ValueError):
            _kernels.min_dists(np.zeros((3, 2)), np.zeros((0, 2)))

    def test_no_points_give_no_distances(self):
        assert _kernels.min_dists(np.zeros((0, 2)), np.ones((4, 2))).shape == (0,)



def blas_counts():
    return [get() for get, _ in _kernels._openblas_functions()]


@pytest.fixture
def two_blas_threads():
    """Every loaded OpenBLAS at 2 threads, so a restore that does nothing
    cannot pass; the counts from before are put back afterwards."""
    functions = _kernels._openblas_functions()
    if "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        assert functions, "numpy is built on OpenBLAS, but no OpenBLAS was found"
    else:
        pytest.skip("numpy is not built on OpenBLAS")
    before = blas_counts()
    for _, set_ in functions:
        set_(2)
    yield
    for (_, set_), count in zip(functions, before):
        set_(count)


def sphere(seen):
    """A 2-D sphere objective that records the BLAS counts at each batch."""

    def evaluate(X):
        seen.append(blas_counts())
        return np.sum(np.atleast_2d(X) ** 2, axis=1)

    return Objective.pointwise(BoxDomain(-np.ones(2), np.ones(2)), lambda x: 0.0), evaluate


def constant_problem(true_mean):
    return BenchmarkProblem(
        "Const2", 2, BoxDomain(np.zeros(2), np.ones(2)), 0.1, true_mean, 0.0, None
    )


class TestOneBlasThread:
    def test_evaluator_sees_one_thread_and_counts_return(self, two_blas_threads):
        seen = []
        objective, evaluate = sphere(seen)
        run_prosrs(objective, default_config(2, 4, n_iterations=3, seed=0), evaluate)
        assert seen and all(set(counts) == {1} for counts in seen)
        assert set(blas_counts()) == {2}

    def test_counts_return_after_evaluation_error(self, two_blas_threads):
        objective, _ = sphere([])
        with pytest.raises(EvaluationError):
            run_prosrs(
                objective, default_config(2, 4, n_iterations=3, seed=0),
                lambda X: np.full(len(X), np.nan),
            )
        assert set(blas_counts()) == {2}

    def test_model_error_trial_pins_and_restores(self, two_blas_threads):
        seen = []

        def true_mean(X):
            seen.append(blas_counts())
            return np.ones(len(np.atleast_2d(X)))

        model_error_trial(constant_problem(true_mean), n=10, base_seed=0, repeat=0, n_mc=100)
        assert seen and all(set(counts) == {1} for counts in seen)
        assert set(blas_counts()) == {2}

    def test_model_error_trial_restores_after_raising(self, two_blas_threads):
        def true_mean(X):
            raise RuntimeError("landscape failed")

        with pytest.raises(RuntimeError):
            model_error_trial(constant_problem(true_mean), n=10, base_seed=0, repeat=0)
        assert set(blas_counts()) == {2}

    def test_nested_uses_restore_the_outermost_counts(self, two_blas_threads):
        with _kernels.one_blas_thread():
            with _kernels.one_blas_thread():
                assert set(blas_counts()) == {1}
            assert set(blas_counts()) == {1}
        assert set(blas_counts()) == {2}

    def test_overlapping_uses_restore_the_first_counts(self, two_blas_threads):
        # Two runs whose pins overlap without nesting: the first ends first.
        first, second = _kernels.one_blas_thread(), _kernels.one_blas_thread()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert set(blas_counts()) == {1}
        second.__exit__(None, None, None)
        assert set(blas_counts()) == {2}

    def test_many_threads_leave_the_counts_restored(self, two_blas_threads):
        # More threads than cores, switching often: a lost update of the
        # nesting depth would leave BLAS pinned or unpin it inside a run.
        inside = []

        def work():
            for _ in range(1000):
                with _kernels.one_blas_thread():
                    with _kernels.one_blas_thread():
                        inside.append(set(blas_counts()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(inside) == 8 * 1000 and all(counts == {1} for counts in inside)
        assert set(blas_counts()) == {2}

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from oracles import latin_hypercube_maximin_loop
from prosrs.doe import latin_hypercube_maximin
from prosrs.problem import BoxDomain


def test_single_point_has_infinite_criterion():
    # One point has no pairs, so its criterion is +inf and never beaten: the
    # first of the 100 designs wins.
    dom = BoxDomain(np.zeros(3), np.ones(3))
    points = latin_hypercube_maximin(1, dom, np.random.default_rng(0))
    first = latin_hypercube_maximin(1, dom, np.random.default_rng(0), n_restarts=1)
    assert points.shape == (1, 3)
    np.testing.assert_array_equal(points, first)
    assert np.all((points > 0) & (points < 1))


def test_one_dimensional_cell_centers_are_forced():
    dom = BoxDomain(np.array([0.0]), np.array([10.0]))
    points = latin_hypercube_maximin(5, dom, np.random.default_rng(1), n_restarts=3)
    np.testing.assert_allclose(sorted(points[:, 0]), [1.0, 3.0, 5.0, 7.0, 9.0])
    assert pdist(points).min() == pytest.approx(2.0)


def latin_property_holds(points, dom):
    m = points.shape[0]
    for j in range(dom.dim):
        w = dom.side_lengths[j] / m
        slabs = np.floor((points[:, j] - dom.lower[j]) / w).astype(int)
        if sorted(slabs) != list(range(m)):
            return False
    return True


def test_quarter_slabs_in_2d():
    dom = BoxDomain(np.zeros(2), np.ones(2))
    points = latin_hypercube_maximin(4, dom, np.random.default_rng(2))
    assert latin_property_holds(points, dom)


def test_latin_property_random_sizes():
    rng = np.random.default_rng(3)
    for m, d in [(2, 1), (7, 3), (12, 5), (30, 2)]:
        lo = rng.uniform(-5, 0, d)
        dom = BoxDomain(lo, lo + rng.uniform(0.5, 10, d))
        points = latin_hypercube_maximin(m, dom, rng, n_restarts=5)
        assert latin_property_holds(points, dom)
        assert np.all(points > dom.lower) and np.all(points < dom.upper)


def test_best_of_selection_is_monotone():
    # Each restart draws one design from the generator, so 40 one-restart
    # calls on one generator replay the 40 designs the best-of-40 call saw.
    dom = BoxDomain(np.zeros(2), np.ones(2))
    best = latin_hypercube_maximin(8, dom, np.random.default_rng(4), n_restarts=40)
    rng = np.random.default_rng(4)
    candidates = [latin_hypercube_maximin(8, dom, rng, n_restarts=1) for _ in range(40)]
    values = [pdist(c).min() for c in candidates]
    assert all(pdist(best).min() >= v for v in values)
    np.testing.assert_array_equal(best, candidates[int(np.argmax(values))])


def test_deterministic_given_seed():
    dom = BoxDomain(np.zeros(4), np.ones(4))
    a = latin_hypercube_maximin(10, dom, np.random.default_rng(5))
    b = latin_hypercube_maximin(10, dom, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_invalid_arguments():
    dom = BoxDomain(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        latin_hypercube_maximin(0, dom, np.random.default_rng(0))
    with pytest.raises(ValueError):
        latin_hypercube_maximin(3, dom, np.random.default_rng(0), n_restarts=0)


@pytest.mark.parametrize(
    "m,d", [(1, 3), (2, 1), (3, 2), (4, 2), (4, 10), (12, 10), (12, 6), (20, 4), (400, 10)]
)
def test_equals_restart_by_restart_construction_bitwise(m, d):
    # The same designs, laid out as the same C-contiguous row stacks, from a
    # generator left in the same state, over several calls on one generator;
    # one domain is anisotropic, which weighs the axes unequally in the score.
    # The large design, as model-error draws it, is checked for one restart.
    restarts = (1,) if m == 400 else (1, 7, 100)
    for lower, upper in ((np.zeros(d), np.ones(d)), (-np.arange(1.0, d + 1), np.full(d, 0.5))):
        dom = BoxDomain(lower, upper)
        for seed in range(4):
            fast, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            for n_restarts in restarts:
                got = latin_hypercube_maximin(m, dom, fast, n_restarts)
                want = latin_hypercube_maximin_loop(m, dom, loop, n_restarts)
                np.testing.assert_array_equal(got, want)
                assert got.flags.c_contiguous
            assert fast.bit_generator.state == loop.bit_generator.state

"""Invariants of a run that must hold for every config and every objective,
degenerate ones included, checked on random configs."""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_zoom_level
from prosrs.engine import run_prosrs
from prosrs.problem import BoxDomain, ExploitState, Objective, default_config
from prosrs.zoomtree import ZoomTree

# Degenerate landscapes: flat, piecewise flat, tiny and huge scales, one
# whose rounding makes many responses equal, and one whose minimum sits on a
# corner of the domain, so that clipped Type II candidates land on evaluated
# points: the pool then holds rows at distance exactly 0 from a centre, and
# runs evaluate the same point more than once.
LANDSCAPES = {
    "constant": lambda x: 3.0,
    "corner_plane": lambda x: float(x.sum()),
    "step": lambda x: float(np.floor(4.0 * x.sum())),
    "sphere_1e-12": lambda x: 1e-12 * float(x @ x),
    "sphere_1e12": lambda x: 1e12 * float(x @ x),
    "rounded_sum": lambda x: float(np.round(x.sum(), 1)),
}


@st.composite
def run_configs(draw):
    d = draw(st.integers(1, 10))
    n_par = draw(st.integers(1, 12))
    return default_config(
        d, n_par,
        n_iterations=draw(st.integers(1, 12)),
        n_candidates_per_dim=draw(st.integers(-(-n_par // d), 30)),
        c_fail=draw(st.integers(1, 3)),
        # Exploiting from the first batch, and zooming after one halving of
        # sigma, make the short runs zoom in, zoom out and restart.
        s_init=ExploitState(0.0, draw(st.sampled_from([1.0, 0.05])), 0.1),
        sigma_crit=draw(st.floats(0.025, 0.09)),
        beta_init=0.5,
        beta_min=0.25,
        r_resolution=draw(st.floats(0.05, 0.5)),
        rho=draw(st.floats(0.2, 0.8)),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(config=run_configs(), landscape=st.sampled_from(sorted(LANDSCAPES)))
def test_run_invariants_hold_on_degenerate_objectives(config, landscape):
    d = config.dim
    domain = BoxDomain(np.full(d, -1.0), np.full(d, 2.0))
    objective = Objective(d, domain, LANDSCAPES[landscape])
    # Every batch passes through ZoomTree.advance, at the node that took it.
    # Hypothesis refuses function-scoped fixtures, so the patch is made here.
    advance = ZoomTree.advance
    events = []

    def checked(tree, X, y, model, rng):
        assert tree.current.omega.contains(X).all()
        assert model is None or len(model.centers) >= 2
        events.append(advance(tree, X, y, model, rng))
        assert tree.current.omega.contains(tree.data.X).all()
        return events[-1]

    with warnings.catch_warnings(), mock.patch.object(ZoomTree, "advance", checked):
        warnings.simplefilter("error")
        result = run_prosrs(objective, config)

    bound = max_zoom_level(config.rho, config.r_resolution)
    best = [log.best_y_so_far for log in result.logs]
    assert all(domain.contains(log.proposed_x).all() for log in result.logs)
    assert all(later <= earlier for earlier, later in zip(best, best[1:]))
    assert all(log.zoom_level <= bound for log in result.logs)
    assert result.n_evaluations == config.m_doe + config.n_par * config.n_iterations
    assert events == [log.event for log in result.logs]

"""Domain-refinement tree: zoom in/out, exploitation schedule, restart check.

A node holds a domain and the exploitation state driving proposals there; the
evaluations live on the tree. Its archive holds every evaluation since the last
restart, and the current node's data is that archive restricted to the node's
box. The tree takes every evaluated batch through one entry point,
``ZoomTree.advance``. A design batch is only recorded, at the current node,
which is the root while a design runs. A proposal batch is recorded, advances
the current node's exploitation schedule, and makes the tree's move, which
``advance`` returns as the batch's event. Zooming in shrinks the domain
around the current surrogate-best point by the zoom factor (clipped at the
parent's walls), revisiting the existing child whose centre is nearest,
measured by ``_kernels.squared_distances``, when the point lies in several;
zooming out returns to the parent with the node's own small probability.
Once a would-be child is finer than the resolution threshold relative to the
root domain, holds fewer than two evaluations, or is too thin to represent
in floating point, the run restarts from a fresh design: its one tree drops
every node and evaluation and starts again from an empty root.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ._kernels import squared_distances
from .problem import BoxDomain, EvalDataset, ExploitState, RunConfig
from .srs import best_fit_index

__all__ = [
    "EVENT_DOE",
    "EVENT_NORMAL",
    "EVENT_RESTART",
    "EVENT_ZOOM_IN",
    "EVENT_ZOOM_OUT",
    "ZoomNode",
    "ZoomTree",
    "update_state",
    "effective_n",
    "restart_condition",
]

logger = logging.getLogger(__name__)

# The batch's event, as ``ZoomTree.advance`` returns it: a design batch, or
# the tree's move after a proposal batch.
EVENT_DOE = "doe"
EVENT_NORMAL = "normal"
EVENT_ZOOM_IN = "zoom_in"
EVENT_ZOOM_OUT = "zoom_out"
EVENT_RESTART = "restart"


class ZoomNode:
    """Tree node: domain, exploitation state, zoom-out probability.

    A node holds no evaluations: while it is current, its data is
    ``ZoomTree.data``, the tree's archive restricted to ``omega``. Mutated only
    by the single driver thread; ``children`` keeps creation order, which
    breaks ties when several children contain the zoom center.
    """

    def __init__(
        self,
        omega: BoxDomain,
        state: ExploitState,
        beta: float,
        parent: "ZoomNode | None" = None,
        node_id: int = 0,
    ):
        if parent is not None and not parent.omega.contains_box(omega):
            raise ValueError("child domain must be contained in the parent domain")
        self.omega = omega
        self.state = state
        self.beta = float(beta)
        self.parent = parent
        self.children: list[ZoomNode] = []
        self.zoom_level = 0 if parent is None else parent.zoom_level + 1
        self.fail_counter = 0
        self.node_id = node_id


def update_state(node: ZoomNode, n_eff: int, iteration_failed: bool, config: RunConfig) -> None:
    """Advance the exploitation schedule of ``node`` after an iteration.

    While p >= 0.1 the uniform-candidate fraction decays by the factor
    n_eff^(-1/d) and nothing else changes. Below that, the consecutive-failure
    counter advances (a success resets it); when it reaches c_fail it resets
    and sigma halves while gamma drops by delta_gamma.
    """
    if n_eff < 1:
        raise ValueError("n_eff must be >= 1")
    s = node.state
    d = node.omega.dim
    if s.p >= 0.1:
        node.state = ExploitState(s.gamma, s.p * n_eff ** (-1.0 / d), s.sigma)
        return
    node.fail_counter = node.fail_counter + 1 if iteration_failed else 0
    if node.fail_counter >= config.c_fail:
        node.fail_counter = 0
        node.state = ExploitState(s.gamma - config.delta_gamma, s.p, s.sigma / 2.0)


def _cells_per_dim(n: int, d: int) -> int:
    # ceil(n^(1/d)) with protection against float roots like 8**(1/3) = 2.0000...4
    root = n ** (1.0 / d)
    nearest = round(root)
    if abs(root - nearest) < 1e-9:
        return max(int(nearest), 1)
    return max(math.ceil(root), 1)


def effective_n(data: EvalDataset, omega: BoxDomain) -> int:
    """Occupied-cell count of a uniform ceil(n^(1/d))-per-dimension grid.

    Measures how densely the evaluations cover the domain. Points on the
    upper boundary belong to the last cell.
    """
    n = len(data)
    if n == 0:
        raise ValueError("dataset is empty")
    d = omega.dim
    k = _cells_per_dim(n, d)
    u = omega.to_unit(data.X)
    idx = np.clip(np.floor(u * k).astype(np.int64), 0, k - 1)
    # Distinct rows, each viewed as one opaque item: a flat cell index over
    # (k,) * d overflows int64 with k**d, and numpy rejects it for any d >= 63.
    return int(np.unique(idx.view(np.dtype((np.void, 8 * d)))).size)


def restart_condition(omega: BoxDomain, n: int, root_domain: BoxDomain, config: RunConfig) -> bool:
    """True iff a child domain ``omega`` holding ``n`` evaluations resolves
    finer than r times the root in every dimension.

    The test is n^(-1/d) * side_i(omega) < r * side_i(root) for all i. An
    empty child cannot be tested and never triggers a restart.
    """
    if n == 0:
        logger.debug("restart check skipped: child has no data")
        return False
    factor = n ** (-1.0 / omega.dim)
    return bool(
        np.all(
            factor * omega.side_lengths
            < config.r_resolution * root_domain.side_lengths
        )
    )


class ZoomTree:
    """Root/current bookkeeping, the archive, and the current node's data.

    One tree serves a whole run, and node ids keep counting across restarts.
    ``archive`` holds every evaluation since the last restart. ``data`` holds
    the current node's evaluations: it is re-derived from the archive whenever
    the current node changes, and grows with the archive while it stays.
    """

    def __init__(self, root_domain: BoxDomain, config: RunConfig):
        self.root_domain = root_domain
        self.config = config
        self._next_id = 0
        self.restart()

    @property
    def current(self) -> ZoomNode:
        return self._current

    @current.setter
    def current(self, node: ZoomNode) -> None:
        # The one place the current data is derived: every move of the
        # current node (restart, zoom-in, zoom-out) comes through here.
        self._current = node
        self.data = self.archive.restrict_to(node.omega)

    def restart(self) -> None:
        """Drop every node and evaluation; a new empty root becomes current."""
        self.archive = EvalDataset(np.empty((0, self.root_domain.dim)), np.empty(0))
        self.root = ZoomNode(
            self.root_domain, self.config.s_init, self.config.beta_init,
            node_id=self._next_id,
        )
        self._next_id += 1
        self.current = self.root

    def record_batch(self, X, y) -> None:
        """Append freshly evaluated points to the archive and the current data."""
        self.archive = self.archive.with_batch(X, y)
        self.data = self.data.with_batch(X, y)

    def advance(self, X, y, model, rng: np.random.Generator) -> str:
        """Record a batch at the current node and make the tree's move.

        A design batch comes with ``model`` None: it is recorded and
        ``doe`` returned, with no step of the schedule, no zoom and no draw
        from ``rng``. A proposal batch fails unless its best response is
        strictly below the current data's best. The batch is recorded, and
        the node's schedule advances by the data's effective count and the
        failure. Once sigma drops below sigma_crit the tree zooms in around
        the data point with the lowest prediction of ``model``, the
        surrogate fitted before the batch. It restarts instead when the
        would-be child cannot be represented, holds fewer than two points
        (a fit needs two), or resolves below the threshold. The tree then
        zooms out with the current node's probability, drawn from ``rng``;
        the root, where a restart leaves it, stays without a draw. Returns
        the batch's event: ``doe``, ``normal``, ``zoom_in``, ``restart`` or
        ``zoom_out``.
        """
        if model is None:
            self.record_batch(X, y)
            return EVENT_DOE
        node = self.current
        failed = bool(y.min() >= self.data.y.min())
        self.record_batch(X, y)
        update_state(node, effective_n(self.data, node.omega), failed, self.config)
        event = EVENT_NORMAL
        if node.state.sigma < self.config.sigma_crit:
            child = self.zoom_in(self.data.X[best_fit_index(self.data, model)])
            n = len(self.data)
            if child is None or n < 2 or restart_condition(
                child.omega, n, self.root_domain, self.config
            ):
                event = EVENT_RESTART
                self.restart()
            else:
                event = EVENT_ZOOM_IN
        if self.maybe_zoom_out(rng):
            event = EVENT_ZOOM_OUT
        return event

    def zoom_in(self, x_star) -> ZoomNode | None:
        """Create or revisit the child of the current node around ``x_star``.

        If no existing child's domain contains x_star, a new child is created
        whose domain has rho-fractional side lengths centered at x_star,
        clipped (not shifted) at the parent's walls; it starts from the
        initial state and zoom-out probability. Otherwise the containing child
        whose domain center has the smallest squared distance to x_star
        (ties: earliest-created) is revisited: its zoom-out probability
        halves (floored at beta_min); its state persists. Either way the
        parent's state and failure counter reset, and the child becomes the
        current node, its data drawn from the archive. A new child whose
        clipped bounds round to equal values on some axis cannot be
        represented: then nothing changes and None is returned, and
        ``advance`` restarts as for a child finer than the resolution
        threshold.
        """
        node = self.current
        x_star = np.asarray(x_star, dtype=float)
        if not node.omega.contains(x_star):
            raise ValueError("zoom center must lie inside the node domain")

        containing = [c for c in node.children if c.omega.contains(x_star)]
        if containing:
            centers = np.array([c.omega.center() for c in containing])
            child = containing[int(np.argmin(squared_distances(centers, x_star)))]
            child.beta = max(child.beta / 2.0, self.config.beta_min)
        else:
            half = 0.5 * self.config.rho * node.omega.side_lengths
            lower = np.maximum(x_star - half, node.omega.lower)
            upper = np.minimum(x_star + half, node.omega.upper)
            if not np.all(lower < upper):
                return None
            child = ZoomNode(
                BoxDomain(lower, upper), self.config.s_init, self.config.beta_init,
                parent=node, node_id=self._next_id,
            )
            self._next_id += 1
            node.children.append(child)

        node.state = self.config.s_init
        node.fail_counter = 0
        self.current = child
        return child

    def maybe_zoom_out(self, rng: np.random.Generator) -> bool:
        """With probability ``current.beta`` make the parent current, its data
        drawn from the archive; report whether the current node changed.
        The root has no parent: it stays, and ``rng`` is not drawn from."""
        node = self.current
        if node.parent is None or rng.random() >= node.beta:
            return False
        self.current = node.parent
        return True

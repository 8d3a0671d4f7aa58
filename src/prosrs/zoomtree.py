"""Domain-refinement tree: zoom in/out, exploitation schedule, restart check.

A node bundles the evaluations inside its domain with the exploitation state
driving proposals there. Zooming in shrinks the domain around the current
surrogate-best point by the zoom factor (clipped at the parent's walls);
zooming out returns to the parent with the node's own small probability. Once
a would-be child is finer than the resolution threshold relative to the root
domain, the run restarts from a fresh design: its one tree drops every node
and evaluation and starts again from an empty root.
"""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np

from .problem import BoxDomain, EvalDataset, ExploitState, RunConfig

__all__ = [
    "ZoomNode",
    "ZoomTree",
    "update_state",
    "effective_n",
    "restart_condition",
]

logger = logging.getLogger(__name__)


class ZoomNode:
    """Tree node: local data, domain, exploitation state, zoom-out probability.

    Mutated only by the single driver thread; ``children`` keeps creation
    order, which breaks ties when several children contain the zoom center.
    """

    def __init__(
        self,
        data: EvalDataset,
        omega: BoxDomain,
        state: ExploitState,
        beta: float,
        parent: "ZoomNode | None" = None,
        node_id: int = 0,
    ):
        if len(data) and not np.all(
            (data.X >= omega.lower) & (data.X <= omega.upper)
        ):
            raise ValueError("every data point must lie inside the node domain")
        if parent is not None and not parent.omega.contains_box(omega):
            raise ValueError("child domain must be contained in the parent domain")
        self.data = data
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
    u = (data.X - omega.lower) / omega.side_lengths
    idx = np.clip(np.floor(u * k).astype(np.int64), 0, k - 1)
    # Distinct rows, each viewed as one opaque item: a flat cell index over
    # (k,) * d overflows int64 with k**d, and numpy rejects it for any d >= 63.
    return int(np.unique(idx.view(np.dtype((np.void, 8 * d)))).size)


def restart_condition(child: ZoomNode, root_domain: BoxDomain, config: RunConfig) -> bool:
    """True iff the child resolves finer than r times the root in every dimension.

    The test is n^(-1/d) * side_i(child) < r * side_i(root) for all i, with n
    the child's data count. An empty child cannot be tested and never
    triggers a restart.
    """
    n = len(child.data)
    if n == 0:
        logger.debug("restart check skipped: child has no data")
        return False
    factor = n ** (-1.0 / child.omega.dim)
    return bool(
        np.all(
            factor * child.omega.side_lengths
            < config.r_resolution * root_domain.side_lengths
        )
    )


class ZoomTree:
    """Root/current bookkeeping plus the archive feeding data refreshes.

    One tree serves a whole run, and node ids keep counting across restarts.
    The archive holds every evaluation since the last restart; node data is
    re-derived from it on child creation, child revisit, and zoom-out.
    """

    def __init__(self, root_domain: BoxDomain, config: RunConfig):
        self.root_domain = root_domain
        self.config = config
        self._ids = itertools.count()
        self.restart()

    def restart(self) -> None:
        """Drop every node and evaluation; a new empty root becomes current."""
        self.archive = EvalDataset(np.empty((0, self.root_domain.dim)), np.empty(0))
        self.root = ZoomNode(
            self.archive, self.root_domain, self.config.s_init, self.config.beta_init,
            node_id=next(self._ids),
        )
        self.current = self.root

    def record_batch(self, X, y) -> None:
        """Append freshly evaluated points to the archive and the current node."""
        self.archive = self.archive.with_batch(X, y)
        self.current.data = self.current.data.with_batch(X, y)

    def zoom_in(self, x_star) -> ZoomNode:
        """Create or revisit the child of the current node around ``x_star``.

        If no existing child's domain contains x_star, a new child is created
        whose domain has rho-fractional side lengths centered at x_star,
        clipped (not shifted) at the parent's walls; it starts from the
        initial state and zoom-out probability, with data pulled from the
        archive. Otherwise the containing child whose domain center is nearest
        to x_star (ties: earliest-created) is revisited: its data is refreshed
        from the archive and its zoom-out probability halves (floored at
        beta_min); its state persists. Either way the parent's state and
        failure counter reset, and the child becomes the current node.
        """
        node = self.current
        x_star = np.asarray(x_star, dtype=float)
        if not node.omega.contains(x_star):
            raise ValueError("zoom center must lie inside the node domain")

        containing = [c for c in node.children if c.omega.contains(x_star)]
        if containing:
            centers = np.array([c.omega.center() for c in containing])
            child = containing[int(np.argmin(np.linalg.norm(centers - x_star, axis=1)))]
            child.data = self.archive.restrict_to(child.omega)
            child.beta = max(child.beta / 2.0, self.config.beta_min)
        else:
            half = 0.5 * self.config.rho * node.omega.side_lengths
            child_omega = BoxDomain(
                np.maximum(x_star - half, node.omega.lower),
                np.minimum(x_star + half, node.omega.upper),
            )
            child = ZoomNode(
                self.archive.restrict_to(child_omega),
                child_omega,
                self.config.s_init,
                self.config.beta_init,
                parent=node,
                node_id=next(self._ids),
            )
            node.children.append(child)

        node.state = self.config.s_init
        node.fail_counter = 0
        self.current = child
        return child

    def maybe_zoom_out(self, rng: np.random.Generator) -> bool:
        """With probability ``current.beta`` move to the parent, its data
        refreshed from the archive; report whether the current node changed.
        The root has no parent: it stays, and ``rng`` is not drawn from."""
        node = self.current
        if node.parent is None:
            return False
        if rng.random() < node.beta:
            node.parent.data = self.archive.restrict_to(node.parent.omega)
            self.current = node.parent
            return True
        return False

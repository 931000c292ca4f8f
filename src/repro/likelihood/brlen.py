"""Branch-length optimisation (RAxML's "makenewz" scheme).

Each edge is optimised by safeguarded Newton–Raphson on the per-edge
eigen-coefficient table (:meth:`LikelihoodEngine.edge_coefficients`), so one
Newton step costs O(patterns · categories · 4) with no matrix exponentials.
A *smoothing pass* walks all edges once; several passes (RAxML uses up to
32 "smoothings") converge the whole tree.
"""

from __future__ import annotations

import math

from repro.likelihood.engine import LikelihoodEngine
from repro.tree.topology import MAX_BRANCH_LENGTH, MIN_BRANCH_LENGTH, Node, Tree


def newton_branch_length(
    engine: LikelihoodEngine,
    coef,
    exps,
    logscale,
    t0: float,
    max_iter: int = 30,
    tol: float = 1e-6,
    first_eval: tuple[float, float, float] | None = None,
) -> tuple[float, float]:
    """Maximise the single-edge likelihood; returns ``(t_opt, lnl_opt)``.

    Safeguards: steps are clamped into ``[MIN, MAX]``; if a Newton step
    does not increase the likelihood it is halved (backtracking); if the
    curvature is non-negative the step falls back to a scaled gradient
    direction.

    ``first_eval`` optionally supplies the ``(lnl, g, h)`` evaluation at
    the (clamped) starting length — callers using the engine's fused
    sumtable-plus-derivatives path obtain it together with the
    coefficient table and skip the separate initial evaluation here.
    A first evaluation that is not finite raises ``ValueError``.
    """
    lo, hi = MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH
    t = min(max(t0, lo), hi)
    if first_eval is None:
        lnl, g, h = engine.edge_lnl_and_derivatives(coef, exps, logscale, t)
    else:
        lnl, g, h = first_eval
    if not all(map(math.isfinite, (lnl, g, h))):
        raise ValueError(f"edge likelihood not finite at t={t}: lnl={lnl}, g={g}, h={h}")
    for _ in range(max_iter):
        if h < 0:
            step = -g / h
        else:
            # Non-concave point: move along the gradient with a bounded step.
            step = 0.1 if g > 0 else -0.1
        # Clamp the raw step so we never jump across the whole domain.
        step = min(max(step, -0.5 * (hi - lo)), 0.5 * (hi - lo))
        improved = False
        for _ in range(20):  # backtracking halving
            t_new = min(max(t + step, lo), hi)
            lnl_new, g_new, h_new = engine.edge_lnl_and_derivatives(
                coef, exps, logscale, t_new
            )
            if lnl_new >= lnl - 1e-12:
                improved = True
                break
            step *= 0.5
            if abs(step) < tol * 1e-3:
                break
        if not improved:
            break
        converged = abs(t_new - t) < tol
        t, lnl, g, h = t_new, lnl_new, g_new, h_new
        if converged:
            break
    return t, lnl


def optimize_edge(
    engine: LikelihoodEngine,
    tree: Tree,
    edge_child: Node,
    down=None,
    up=None,
) -> float:
    """Optimise a single branch length in place; returns the new length.

    ``down``/``up`` partial maps may be supplied to avoid recomputation
    (they must be current for the tree's other branch lengths).
    """
    if edge_child.parent is None:
        raise ValueError("the root has no incident edge to optimise")
    if down is None:
        down = engine.compute_down_partials(tree)
    if up is None:
        up = engine.compute_up_partials(tree, down, [edge_child])
    return _newton_edge(engine, edge_child, down, up)


def _newton_edge(engine: LikelihoodEngine, edge_child: Node, down, up) -> float:
    """Newton on one edge against the given partials, from its clamped
    length; sets and returns the optimum."""
    t0 = min(max(edge_child.length, MIN_BRANCH_LENGTH), MAX_BRANCH_LENGTH)
    coef, exps, logscale, first = engine.edge_coefficients_and_derivatives(
        down[id(edge_child)], up[id(edge_child)], t0
    )
    edge_child.length, _ = newton_branch_length(
        engine, coef, exps, logscale, t0, first_eval=first
    )
    return edge_child.length


def optimize_branch_lengths(
    engine: LikelihoodEngine,
    tree: Tree,
    passes: int = 4,
    tol: float = 1e-3,
) -> float:
    """Smooth all branch lengths; returns the final log-likelihood.

    Each pass recomputes partials once and then optimises every edge
    against them (Jacobi-style staleness within a pass, like RAxML's
    smoothing iterations).  If a pass fails to improve the tree it is
    rolled back and smoothing stops, so the result is never worse than the
    input.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    best_lnl = engine.loglikelihood(tree)
    for _ in range(passes):
        snapshot = {id(n): n.length for n in tree.postorder() if n.parent is not None}
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        for edge_child in tree.edges():
            _newton_edge(engine, edge_child, down, up)
        lnl = engine.loglikelihood(tree)
        if lnl < best_lnl - 1e-9:
            # Stale-partials pass overshot: roll back and stop.
            for n in tree.postorder():
                if n.parent is not None:
                    n.length = snapshot[id(n)]
            return best_lnl
        if lnl - best_lnl < tol:
            return lnl
        best_lnl = lnl
    return best_lnl

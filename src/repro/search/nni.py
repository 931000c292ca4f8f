"""Nearest-neighbour-interchange (NNI) local search.

NNI is the cheapest rearrangement move (two alternative topologies per
internal edge).  RAxML's searches are SPR-based, but NNI rounds are a
useful light-weight refinement — and the standard baseline SPR is compared
against, so this module also serves the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.likelihood.brlen import optimize_edge
from repro.obs.recorder import current as _obs_current
from repro.tree.topology import Tree


@dataclass(frozen=True)
class NNIParams:
    """Tuning knobs of one NNI round."""

    min_improvement: float = 0.01

    def __post_init__(self) -> None:
        if self.min_improvement < 0:
            raise ValueError("min_improvement must be non-negative")


def try_nni(
    engine, tree: Tree, edge_index: int, variant: int
) -> tuple[Tree, float] | None:
    """Apply one NNI on a copy; returns ``(tree, lnl)`` or ``None`` if the
    indexed edge is not an internal edge."""
    work = tree.copy()
    internal = work.internal_edges()
    if not (0 <= edge_index < len(internal)):
        return None
    edge = internal[edge_index]
    work.nni(edge, variant)
    # With the engine's CLV cache on, only partials whose subtree
    # signature changed by the interchange are recomputed here.
    edges = [e for e in [edge] + edge.children if e.parent is not None]
    down = engine.compute_down_partials(work)
    up = engine.compute_up_partials(work, down, edges)
    for e in edges:
        optimize_edge(engine, work, e, down=down, up=up)
    return work, engine.loglikelihood(work)


def nni_round(engine, tree: Tree, params: NNIParams = NNIParams(),
              current_lnl: float | None = None) -> tuple[Tree, float, bool]:
    """One greedy pass over all internal edges and both NNI variants.

    Accepted improvements take effect immediately; returns
    ``(tree, lnl, improved_any)``.
    """
    current = tree
    lnl = engine.loglikelihood(tree) if current_lnl is None else current_lnl
    improved_any = False
    idx = 0
    rec = _obs_current()
    t_round = rec.now if rec is not None else 0.0
    tried = accepted = 0
    while idx < len(current.internal_edges()):
        best_alt = None
        for variant in (0, 1):
            result = try_nni(engine, current, idx, variant)
            if result is None:
                break
            tried += 1
            if result[1] > lnl + params.min_improvement and (
                best_alt is None or result[1] > best_alt[1]
            ):
                best_alt = result
        if best_alt is not None:
            current, lnl = best_alt
            improved_any = True
            accepted += 1
        idx += 1
    if rec is not None:
        rec.count("search.nni.tried", tried)
        rec.count("search.nni.accepted", accepted)
        rec.span("nni_round", "search", t_round, args={
            "tried": tried, "accepted": accepted, "lnl": lnl,
        })
    return current, lnl, improved_any


def nni_hill_climb(engine, tree: Tree, params: NNIParams = NNIParams(),
                   max_rounds: int = 30) -> tuple[Tree, float]:
    """Iterate NNI rounds to a local optimum."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    work = tree.copy()
    lnl = engine.loglikelihood(work)
    for _ in range(max_rounds):
        work, lnl, improved = nni_round(engine, work, params, current_lnl=lnl)
        if not improved:
            break
    return work, lnl

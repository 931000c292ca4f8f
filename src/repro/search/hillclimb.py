"""SPR hill climbing to a local likelihood optimum."""

from __future__ import annotations

from dataclasses import dataclass

from repro.likelihood.brlen import optimize_branch_lengths
from repro.obs.recorder import current as _obs_current
from repro.search.spr import SPRParams, spr_round
from repro.tree.topology import Tree


@dataclass
class SearchResult:
    """Outcome of one tree search."""

    tree: Tree
    lnl: float
    rounds: int = 0

    def __iter__(self):  # allow `tree, lnl = result`
        yield self.tree
        yield self.lnl


def hill_climb(
    engine,
    tree: Tree,
    initial_radius: int = 5,
    max_radius: int = 10,
    radius_step: int = 5,
    max_rounds: int = 25,
    brlen_passes: int = 2,
    min_improvement: float = 0.01,
    rng=None,
    max_prune_candidates: int | None = None,
) -> SearchResult:
    """Iterated SPR rounds with escalating rearrangement radius.

    Mirrors RAxML's strategy: search at a small radius while it keeps
    improving; when a round yields nothing, widen the radius; stop when
    the maximum radius also yields nothing (or ``max_rounds`` is hit).
    Branch lengths are smoothed before the first round and after every
    accepted round.  The engine's plan executor decides per move how
    much CLV work each of these steps actually costs (see
    :mod:`repro.likelihood.engine`); results are independent of that choice.
    """
    if initial_radius < 1 or max_radius < initial_radius or radius_step < 1:
        raise ValueError("invalid radius schedule")
    rec = _obs_current()
    t_climb = rec.now if rec is not None else 0.0
    work = tree.copy()
    lnl = optimize_branch_lengths(engine, work, passes=brlen_passes)
    radius = initial_radius
    rounds = 0
    settled: dict[int, tuple] = {}  # trials a failed round rejected for good
    while rounds < max_rounds:
        params = SPRParams(
            radius=radius,
            min_improvement=min_improvement,
            max_prune_candidates=max_prune_candidates,
        )
        work, lnl, improved = spr_round(engine, work, params, lnl, rng=rng, settled=settled)
        rounds += 1
        if improved:
            lnl = optimize_branch_lengths(engine, work, passes=brlen_passes)
            continue
        if radius >= max_radius:
            break
        radius = min(radius + radius_step, max_radius)
    if rec is not None:
        rec.count("search.hill_climbs")
        rec.span("hill_climb", "search", t_climb, args={
            "rounds": rounds, "final_radius": radius, "lnl": lnl,
        })
    return SearchResult(work, lnl, rounds)

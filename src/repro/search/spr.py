"""Lazy subtree-pruning-and-regrafting (SPR) moves.

RAxML's search applies *lazy* SPR: a subtree is pruned, candidate
re-insertion edges within a rearrangement radius are scored with fixed
branch lengths using precomputed partials (one kernel call per candidate),
and only the winning insertion is optimised and fully evaluated.  This
module implements one such round over all prune positions, working on tree
copies so rejected moves leave the current tree untouched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.likelihood.brlen import optimize_edge
from repro.obs.recorder import current as _obs_current
from repro.tree.topology import Node, Tree


@dataclass(frozen=True)
class SPRParams:
    """Tuning knobs of one SPR round.

    ``radius`` is RAxML's rearrangement setting: candidate insertion edges
    must lie within this many edges of the pruning point.  ``min_improvement``
    is the likelihood epsilon below which a move is not accepted.
    """

    radius: int = 5
    min_improvement: float = 0.01
    max_prune_candidates: int | None = None  # optionally subsample prune points

    def __post_init__(self) -> None:
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if self.min_improvement < 0:
            raise ValueError("min_improvement must be non-negative")


def edges_within_radius(tree: Tree, origin: Node, radius: int) -> list[Node]:
    """All edges (child endpoints) within ``radius`` hops of ``origin``."""
    dist: dict[int, int] = {id(origin): 0}
    queue: deque[Node] = deque([origin])
    nodes: list[Node] = [origin]
    while queue:
        node = queue.popleft()
        d = dist[id(node)]
        if d >= radius:
            continue
        neighbours = list(node.children)
        if node.parent is not None:
            neighbours.append(node.parent)
        for nb in neighbours:
            if id(nb) not in dist:
                dist[id(nb)] = d + 1
                queue.append(nb)
                nodes.append(nb)
    return [n for n in nodes if n.parent is not None]


class SPRTrial(tuple):
    """:func:`try_spr`'s ``(new_tree, lnl)``; ``whole``: every edge of the
    pruned tree was a candidate, so a larger radius repeats the trial."""

    whole: bool

    def __new__(cls, tree: Tree, lnl: float, whole: bool) -> "SPRTrial":
        trial = super().__new__(cls, (tree, lnl))
        trial.whole = whole
        return trial


def try_spr(
    engine,
    tree: Tree,
    prune_index: int,
    params: SPRParams,
) -> SPRTrial | None:
    """Attempt the best lazy-SPR move for one prune position.

    ``prune_index`` indexes the postorder enumeration of ``tree``.  Works
    on a copy; returns the :class:`SPRTrial` ``(new_tree, lnl)`` for the
    best insertion found, or ``None`` when the position cannot be pruned
    (root, too-large subtree, or no candidate edges).
    """
    work = tree.copy()
    nodes = list(work.postorder())
    if not (0 <= prune_index < len(nodes)):
        raise IndexError(f"prune_index {prune_index} out of range")
    target = nodes[prune_index]
    if target.parent is None:
        return None
    n_sub = len(work.subtree_leaves(target))
    if work.n_leaves - n_sub < 3:
        return None

    # Subtree partial (valid after pruning: the subtree is untouched, so
    # only the nodes under the prune point need computing).
    down_sub = engine.compute_down_partials(work, subtree=target)
    d_s = down_sub[id(target)]
    t_sub = target.length

    parent = target.parent
    siblings = [c for c in parent.children if c is not target]
    pruned, _ = work.prune(target)
    origin = siblings[0]

    # Post-prune partials.  With the engine's CLV cache enabled the
    # plan executor serves every subtree signature untouched by the
    # prune from cache, so only the path from the pruning point to the
    # root costs kernel work; without a cache this is a full traversal.
    # Up partials are computed only on the candidates' root paths.
    candidates = edges_within_radius(work, origin, params.radius)
    whole = len(candidates) == len(work.edges())
    down = engine.compute_down_partials(work)
    up = engine.compute_up_partials(work, down, candidates)
    if not candidates:
        return None

    # Tie-break tolerance: sharded and cached evaluations are bit-identical
    # to serial ones by construction, but a clear margin keeps the chosen
    # insertion (and hence the search trajectory) stable under future
    # backends whose reductions may legitimately differ in the last ulps.
    _TIE_EPS = 1e-8
    best_edge = None
    best_score = -float("inf")
    for v in candidates:
        score = engine.insertion_loglikelihood(
            down[id(v)],
            up[id(v)],
            d_s,
            v.length,
            t_sub,
        )
        if score > best_score + _TIE_EPS:
            best_score = score
            best_edge = v
    # Each map holds a partial per node (hundreds of MiB at 404 taxa):
    # free the post-prune ones before the regraft's traversals.
    del down_sub, down, up

    joint = work.regraft(pruned, best_edge, length=t_sub)
    # Optimise the three branches around the insertion point against
    # one shared set of partials (Jacobi-style, like the smoothing
    # passes) — recomputing partials per edge would triple the cost.
    edges = [e for e in [joint] + joint.children if e.parent is not None]
    down_new = engine.compute_down_partials(work)
    up_new = engine.compute_up_partials(work, down_new, edges)
    for edge_child in edges:
        optimize_edge(engine, work, edge_child, down=down_new, up=up_new)
    del down_new, up_new
    return SPRTrial(work, engine.loglikelihood(work), whole)


def spr_round(
    engine,
    tree: Tree,
    params: SPRParams,
    current_lnl: float | None = None,
    rng=None,
    settled: dict[int, tuple] | None = None,
) -> tuple[Tree, float, bool]:
    """One greedy pass over all prune positions.

    Accepted moves take effect immediately (RAxML's behaviour); returns
    ``(tree, lnl, improved_any)``.  ``rng`` optionally subsamples prune
    positions down to ``params.max_prune_candidates``.
    ``settled`` (updated in place, emptied by an accepted move) maps the
    prune indices rejected on ``tree`` with every edge a candidate to the
    engine's ``charges()`` before and after them: this radius or a larger
    one would repeat them bit for bit, so until a move is accepted they
    are counted and charged (``recharge``) as tried without running.
    """
    settled = {} if settled is None else settled
    current = tree
    lnl = engine.loglikelihood(tree) if current_lnl is None else current_lnl
    improved_any = False
    n_nodes = len(list(current.postorder()))
    indices = list(range(n_nodes))
    if (
        params.max_prune_candidates is not None
        and rng is not None
        and len(indices) > params.max_prune_candidates
    ):
        rng.shuffle(indices)
        indices = sorted(indices[: params.max_prune_candidates])
    rec = _obs_current()
    t_round = rec.now if rec is not None else 0.0
    tried = accepted = 0
    for idx in indices:
        if idx in settled:
            engine.recharge(*settled[idx])
            tried += 1
            continue
        mark = engine.charges()
        trial = try_spr(engine, current, idx, params)
        if trial is None:
            continue
        tried += 1
        new_tree, new_lnl = trial
        if new_lnl > lnl + params.min_improvement:
            current, lnl = new_tree, new_lnl
            improved_any = True
            accepted += 1
            settled.clear()
        elif trial.whole and not improved_any:
            settled[idx] = mark, engine.charges()
    if rec is not None:
        rec.count("search.spr.tried", tried)
        rec.count("search.spr.accepted", accepted)
        rec.span("spr_round", "search", t_round, args={
            "radius": params.radius, "tried": tried,
            "accepted": accepted, "lnl": lnl,
        })
    return current, lnl, improved_any

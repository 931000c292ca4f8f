"""Felsenstein-pruning likelihood engine, vectorized over patterns.

The engine is the execution layer of a three-layer likelihood core that
mirrors the structure of RAxML's:

* the **traversal planner** (:mod:`repro.likelihood.plan`) diffs tree
  state against a CLV cache and emits an ordered list of CLV operations
  — the analogue of RAxML's traversal descriptor;
* the **kernel** (:class:`~repro.likelihood.kernels.base.KernelBackend`)
  executes every pattern-axis computation, each as one sweep over the
  whole axis, and charges the :class:`OpCounter`;
* this module walks plans level by level, resolves CLV-cache hits, hands
  the rest to the kernel, and reduces per-pattern results to weighted
  log-likelihoods.

Threaded execution is not a separate class, nor a separate code path:
the pool's workers are virtual, so a
:class:`~repro.threads.pool.VirtualThreadPool` only *prices* each kernel
sweep — one parallel region of simulated time, from the per-worker
pattern counts — and the kernel computes the same whole-axis arrays it
computes without a pool.  Serial and threaded results are
**bit-identical by construction**, for any thread count; that really
slicing the axis per worker would not move a bit either is what the
tiling kernels of the test suites prove.

Other structural features retained from the original engine:

* two rate-heterogeneity modes: ``gamma`` (a mixture — every pattern is
  evaluated under every category, GTRGAMMA) and ``cat`` (each pattern is
  assigned to exactly one rate category, GTRCAT);
* per-pattern log-scalers avoid underflow on large trees;
* "down" partials (postorder, subtree below each node) and "up" partials
  (preorder, rest-of-tree seen from above; only on the root paths of the
  edges a caller reads, charged as the full sweep) support O(1)-per-edge
  likelihood evaluation for branch optimisation and lazy SPR scoring.
"""

from __future__ import annotations

import numpy as np

from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels.base import (
    _TINY,
    KernelBackend,
    LevelSpec,
    OpCounter,
    Partial,
    clv_entries,
)
from repro.likelihood.plan import CLVCache, plan_traversal
from repro.likelihood.rates import RateModel, subset_rate_model
from repro.obs.recorder import current as _obs_current
from repro.seq.encoding import TIP_ROWS
from repro.seq.patterns import PatternAlignment
from repro.tree.topology import Node, Tree

__all__ = [
    "LikelihoodEngine",
    "OpCounter",
    "RateModel",
    "subset_rate_model",
]


class DownPartials(dict):
    """Down partials by ``id(node)``; ``signatures``: their plan's."""

    signatures: dict[int, int]


class LikelihoodEngine:
    """Phylogenetic likelihood computations for one pattern alignment.

    Parameters
    ----------
    pal:
        The pattern-compressed alignment.
    model:
        The GTR substitution model.
    rate_model:
        Gamma mixture or CAT assignment (see :class:`RateModel`).
    weights:
        Optional override of the pattern weights (bootstrap replicates pass
        resampled weights here); defaults to ``pal.weights``.
    ops:
        Optional shared :class:`OpCounter`.
    kernel_class:
        The kernel's class: :class:`KernelBackend`, or a subclass that cuts
        the pattern axis differently (the test suites' tiling kernels).
    clv_cache:
        ``True`` (or a :class:`~repro.likelihood.plan.CLVCache` instance) to
        reuse down partials across evaluations via subtree signatures.  Off
        by default: caching changes how much kernel work a traversal costs,
        which callers measuring op counts must opt into.
    pool:
        Optional :class:`~repro.threads.pool.VirtualThreadPool`.  When set,
        each kernel sweep charges one region of simulated parallel time,
        priced from the workers' pattern counts; what the kernels execute
        does not depend on it.
    """

    def __init__(
        self,
        pal: PatternAlignment,
        model: GTRModel,
        rate_model: RateModel | None = None,
        weights: np.ndarray | None = None,
        ops: OpCounter | None = None,
        kernel_class: type[KernelBackend] = KernelBackend,
        clv_cache: bool | CLVCache = False,
        pool=None,
    ) -> None:
        self.pal = pal
        self.weights = self._checked_weights(pal.weights if weights is None else weights)
        self.ops = ops if ops is not None else OpCounter()
        self.pool = pool
        if isinstance(clv_cache, CLVCache):
            self.clv_cache: CLVCache | None = clv_cache
        else:
            self.clv_cache = CLVCache(clv_entries(pal.n_taxa)) if clv_cache else None
        self._sig_memo: dict = {}  # subtree_signatures' store, bounded below
        # Tip partials are reused across traversals (a tip's down partial
        # depends only on its alignment row) and share one zero log-scaler.
        self._tip_parts: dict[int, Partial] = {}
        self._zero_logscale = np.zeros(pal.n_patterns)
        self._zero_logscale.setflags(write=False)
        self._set_model(
            model, rate_model if rate_model is not None else RateModel.gamma(),
            kernel_class,
        )

    def _checked_weights(self, weights) -> np.ndarray:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.pal.n_patterns,):
            raise ValueError("weights length must equal the number of patterns")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        return w

    def _set_model(self, model: GTRModel, rate_model: RateModel, kernel_class) -> None:
        """The model-dependent state: a new kernel and the "+I" table."""
        pal = self.pal
        if rate_model.kind == "cat" and rate_model.pattern_to_cat.shape != (pal.n_patterns,):
            raise ValueError("pattern_to_cat length must equal the number of patterns")
        self.model, self.rate_model = model, rate_model
        self.kernel = kernel_class(model, rate_model, self.ops, pal.n_patterns, pal.n_taxa)
        # "+I" support: the invariant-site likelihood of each pattern is
        # sum_s pi_s over the states every taxon is compatible with —
        # non-zero only for constant-compatible columns, tree-independent.
        if rate_model.p_invariant > 0.0:
            const_mask = np.bitwise_and.reduce(pal.patterns, axis=0)
            self._inv_lik = TIP_ROWS[const_mask] @ model.pi
        else:
            self._inv_lik = None

    # -- basic shapes -------------------------------------------------------

    @property
    def n_patterns(self) -> int:
        return self.pal.n_patterns

    @property
    def n_categories(self) -> int:
        return self.rate_model.n_categories

    @property
    def is_cat(self) -> bool:
        return self.rate_model.kind == "cat"

    def _with(
        self, *, fresh_cache: bool, model=None, rate_model=None, weights=None
    ) -> "LikelihoodEngine":
        """A sibling engine with a new kernel, differing in the given
        constructor arguments, over this engine's tip partials and its CLV
        cache or (``fresh_cache``) an empty one of the same capacity."""
        sibling = object.__new__(type(self))
        sibling.__dict__.update(self.__dict__)
        if weights is not None:
            sibling.weights = self._checked_weights(weights)
        if fresh_cache and self.clv_cache is not None:
            sibling.clv_cache = CLVCache(self.clv_cache.max_entries)
        sibling._set_model(
            self.model if model is None else model,
            self.rate_model if rate_model is None else rate_model,
            type(self.kernel),
        )
        return sibling

    def with_model(self, model: GTRModel) -> "LikelihoodEngine":
        """New model parameters invalidate every CLV: fresh cache."""
        return self._with(fresh_cache=True, model=model)

    def with_rate_model(self, rate_model: RateModel) -> "LikelihoodEngine":
        return self._with(fresh_cache=True, rate_model=rate_model)

    def with_weights(self, weights: np.ndarray) -> "LikelihoodEngine":
        """CLVs are weight-independent, so the cache is shared."""
        return self._with(fresh_cache=False, weights=weights)

    # -- region accounting ---------------------------------------------------

    def _charge_regions(self, n_regions: int) -> None:
        """Charge simulated parallel-region time (threaded mode only)."""
        if self.pool is not None:
            self.pool.charge_regions(n_regions, self.n_patterns, self.n_categories)

    def charges(self) -> tuple[int, ...]:
        """The op counter's fields and the regions charged so far."""
        return (*self.ops.snapshot().values(), self.pool.regions_executed if self.pool else 0)

    def recharge(self, before: tuple[int, ...], after: tuple[int, ...]) -> None:
        """Charge what was charged between two :meth:`charges` marks again,
        without computing: known work costs the simulated run the same."""
        *ops, regions = (a - b for a, b in zip(after, before))
        for name, n in zip(self.ops.snapshot(), ops):
            setattr(self.ops, name, getattr(self.ops, name) + n)
        self._charge_regions(regions)

    # -- CLV primitives ----------------------------------------------------

    def tip_clv(self, leaf_index: int, patterns: slice | None = None) -> np.ndarray:
        """The (unscaled) tip CLV for one taxon: (m, 4) 0/1 indicators."""
        masks = self.pal.patterns[leaf_index]
        if patterns is not None:
            masks = masks[patterns]
        return TIP_ROWS[masks]

    def _as_full(self, clv: np.ndarray) -> np.ndarray:
        """Expand a tip CLV (m, 4) to the engine's full CLV shape.

        In gamma mode internal CLVs are (m, k, 4); a tip's CLV is
        category-independent and is broadcast.  In cat mode both shapes are
        already (m, 4).
        """
        if not self.is_cat and clv.ndim == 2:
            m = clv.shape[0]
            return np.broadcast_to(clv[:, None, :], (m, self.n_categories, 4))
        return clv

    def _tip_partial(self, leaf_index: int) -> Partial:
        part = self._tip_parts.get(leaf_index)
        if part is None:
            clv = self.tip_clv(leaf_index)
            clv.setflags(write=False)
            part = Partial(clv, self._zero_logscale)
            self._tip_parts[leaf_index] = part
        return part

    def _child_specs(
        self, node: Node, sigs: dict[int, int], down: dict[int, Partial]
    ) -> tuple[list[LevelSpec], list[np.ndarray | None]]:
        """What the kernel needs of ``node``'s children, in child order:
        the edge specs (a leaf's payload is its pattern-mask row, an inner
        child's its down CLV) and the down log-scalers (``None`` for
        leaves, whose scalers are exact zeros)."""
        specs, logscales = [], []
        for child in node.children:
            if child.is_leaf:
                payload, ls = self.pal.patterns[child.leaf_index], None
            else:
                part = down[id(child)]
                payload, ls = part.clv, part.logscale
            specs.append((sigs[id(child)], child.length, payload))
            logscales.append(ls)
        return specs, logscales

    # -- down partials (postorder levels, plan-driven) -------------------------

    def compute_down_partials(
        self, tree: Tree, subtree: Node | None = None
    ) -> dict[int, Partial]:
        """CLV of the subtree below every node, keyed by ``id(node)``; the
        map's ``signatures`` are the plan's, which the up sweep reuses.

        Plans the traversal first: with the CLV cache enabled, inner nodes
        whose subtree signature is cached are fetched instead of recomputed
        — after a local move only the root path costs kernel work.

        ``subtree`` restricts the computation to the nodes under (and
        including) one node — used by lazy SPR, where the pruned subtree's
        partial is independent of the rest of the tree.
        """
        if len(self._sig_memo) > 8 * clv_entries(self.pal.n_taxa):
            self._sig_memo.clear()
        plan = plan_traversal(tree, self.clv_cache, subtree, self._sig_memo)
        rec = _obs_current()
        if rec is not None:
            rec.count("clv.plan_traversals")
            rec.count("clv.plan_tips", plan.n_tip)
            rec.count("clv.cache_hits", plan.n_cached)
            rec.count("clv.cache_misses", plan.n_inner)
        down, executed = self._execute_plan(plan)
        # One simulated region per executed inner-node CLV update (at least
        # one: even an all-cached traversal synchronises the workers once).
        if rec is not None:
            rec.count("clv.inner_executed", executed)
        self._charge_regions(max(executed, 1))
        return down

    def _execute_plan(self, plan) -> tuple[DownPartials, int]:
        """Level-wise plan execution.

        Each dependency level resolves cache hits first, then hands every
        remaining op to the kernel in one ``level_partials`` batch.  Planned
        hits are re-fetched (and recomputed if evicted since planning) and
        every computed partial is put back, in level order — so CLV-cache
        traffic, and with it op totals under eviction, cannot depend on how
        the kernel cuts the pattern axis.  The P-matrices of the computed
        ops' child edges (tips too: tip tables are built from P) are built
        first, in one batch (:meth:`KernelBackend.build_pmatrices`).
        """
        cache = self.clv_cache
        sigs = plan.signatures
        self.kernel.build_pmatrices(
            [ch.length for op in plan.ops if op.kind == "inner" for ch in op.node.children]
        )
        down = DownPartials()
        down.signatures = sigs
        executed = 0
        for level in plan.levels():
            pending = []
            for op in level:
                if op.kind == "tip":
                    down[id(op.node)] = self._tip_partial(op.node.leaf_index)
                    continue
                if op.kind == "cached":
                    part = cache.get(op.signature, planned=True)
                    if part is not None:
                        down[id(op.node)] = part
                        continue
                pending.append(op)
            if not pending:
                continue
            parts = self.kernel.level_partials(
                [self._child_specs(op.node, sigs, down) for op in pending]
            )
            for op, part in zip(pending, parts):
                executed += 1
                if cache is not None:
                    cache.put(op.signature, part)
                down[id(op.node)] = part
        return down, executed

    # -- up partials (preorder levels) ------------------------------------------

    def compute_up_partials(
        self, tree: Tree, down: DownPartials, needed: list[Node] | None = None
    ) -> dict[int, Partial]:
        """For each non-root node ``v``: the partial *at v's parent* of the
        entire tree minus ``v``'s subtree, keyed by ``id(v)``.

        Together with ``down[v]`` this evaluates the likelihood of the edge
        above ``v`` in O(1) kernel calls (RAxML's "makenewz" setting).

        Internal nodes are grouped by depth (parents strictly before
        children, so each node's own up partial exists when its level
        runs) and each level is one ``up_level_partials`` kernel batch:
        per node, the parent-side partial to transport across the node's
        own edge plus the child specs of :meth:`_child_specs`.

        ``needed`` (nodes) restricts the sweep to their root paths: only
        their ancestors are expanded, each whole, so what it returns is
        the full sweep's to the bit and any other node is a ``KeyError``.
        Ops and regions are still charged for the full sweep.
        """
        sigs = down.signatures
        expand = None if needed is None else set()
        for v in needed or ():
            while v.parent is not None and id(v.parent) not in expand:
                v = v.parent
                expand.add(id(v))
        up: dict[int, Partial] = {}
        n_edges = n_skipped = 0
        level = [tree.root]
        while level:
            run, node_specs = [], []
            for node in level:
                n_edges += len(node.children)
                if expand is not None and id(node) not in expand:
                    n_skipped += len(node.children) + (node is not tree.root)
                    continue
                above = None
                if node is not tree.root:
                    raw = up[id(node)]
                    above = (node.length, raw.clv, raw.logscale)
                run.append(node)
                node_specs.append((above, *self._child_specs(node, sigs, down)))
            for node, parts in zip(run, self.kernel.up_level_partials(node_specs)):
                for child, part in zip(node.children, parts):
                    up[id(child)] = part
            level = [ch for node in level for ch in node.children if not ch.is_leaf]
        self.ops.charge_clv(self.n_patterns, self.n_categories, n=n_skipped)
        self._charge_regions(n_edges)
        return up

    # -- likelihood ---------------------------------------------------------------

    def _site_logl(self, site: np.ndarray, logscale: np.ndarray) -> np.ndarray:
        """Per-pattern log-likelihood from scaled variable-part site
        likelihoods, mixing in the +I invariant component when present."""
        p = self.rate_model.p_invariant
        if p == 0.0:
            return np.log(np.maximum(site, _TINY)) + logscale
        var = np.log(np.maximum((1.0 - p) * site, _TINY)) + logscale
        with np.errstate(divide="ignore"):
            inv = np.log(p * np.maximum(self._inv_lik, 0.0))
        return np.logaddexp(var, inv)

    def _combine_root(self, root_partial: Partial) -> np.ndarray:
        """Per-pattern log-likelihood from the root CLV."""
        site = self.kernel.root_site(self._as_full(root_partial.clv))
        return self._site_logl(site, root_partial.logscale)

    def site_loglikelihoods(self, tree: Tree) -> np.ndarray:
        """Per-pattern log-likelihoods (unweighted)."""
        down = self.compute_down_partials(tree)
        self._charge_regions(1)  # the evaluate/reduction sweep
        return self._combine_root(down[id(tree.root)])

    def loglikelihood(self, tree: Tree) -> float:
        """The weighted log-likelihood of ``tree`` under this engine.

        Kernels and this reduction both run once over the full pattern
        axis whatever the thread count, so the value is bit-identical for
        serial and threaded execution.
        """
        return float(self.weights @ self.site_loglikelihoods(tree))

    def edge_loglikelihood(
        self,
        edge_child: Node,
        t: float,
        down_v: Partial,
        up_v: Partial,
    ) -> float:
        """Likelihood evaluated across one edge with partials on both sides.

        ``down_v`` is the subtree partial at ``edge_child``; ``up_v`` is the
        rest-of-tree partial at its parent (see
        :meth:`compute_up_partials`).
        """
        site = self.kernel.edge_site(
            self._as_full(up_v.clv), self.kernel.pmatrices(t), self._as_full(down_v.clv)
        )
        self._charge_regions(1)
        logl = self._site_logl(site, down_v.logscale + up_v.logscale)
        return float(self.weights @ logl)

    def insertion_loglikelihood(
        self,
        down_v: Partial,
        up_v: Partial,
        down_s: Partial,
        t_edge: float,
        t_sub: float,
    ) -> float:
        """Lazy-SPR score: likelihood of inserting a pruned subtree.

        The subtree with subtree partial ``down_s`` is attached by a branch
        of length ``t_sub`` to a new node placed at the midpoint of the
        edge carrying partials ``down_v`` (below) and ``up_v`` (above,
        length ``t_edge``).  No branch lengths are optimised — this is
        RAxML's lazy SPR evaluation used to rank candidate insertions.
        """
        half = max(t_edge * 0.5, 1e-9)
        site = self.kernel.insertion_site(
            self._as_full(down_v.clv),
            self._as_full(up_v.clv),
            self._as_full(down_s.clv),
            self.kernel.pmatrices(half),
            self.kernel.pmatrices(t_sub),
        )
        self._charge_regions(1)
        logl = self._site_logl(
            site, down_v.logscale + up_v.logscale + down_s.logscale
        )
        return float(self.weights @ logl)

    # -- sumtable (eigen-coefficient) machinery for Newton steps ---------------

    def edge_coefficients(self, down_v: Partial, up_v: Partial):
        """Eigenbasis coefficient table for the edge likelihood function.

        Returns ``(coef, exps, logscale)`` such that the per-pattern site
        likelihood across the edge at branch length ``t`` is

        ``site_p(t) = sum_{k,j} coef[p,k,j] * exp(exps[k,j] * t)``  (gamma)
        ``site_p(t) = sum_j coef[p,j] * exp(exps[p,j] * t)``        (cat)

        This is RAxML's "sumtable": Newton iterations on ``t`` then cost
        O(m·k·4) per step with no further matrix exponentials.
        """
        coef, exps = self.kernel.sumtable(
            self._as_full(up_v.clv), self._as_full(down_v.clv)
        )
        self._charge_regions(1)
        logscale = down_v.logscale + up_v.logscale
        return coef, exps, logscale

    def edge_coefficients_and_derivatives(self, down_v: Partial, up_v: Partial, t: float):
        """Sumtable build plus the Newton evaluation at ``t`` in one call.

        Returns ``(coef, exps, logscale, (lnl, g, h))`` — what separate
        :meth:`edge_coefficients` + :meth:`edge_lnl_and_derivatives` calls
        give, with the same op and region charges.
        """
        coef, exps, logscale = self.edge_coefficients(down_v, up_v)
        # Not via edge_lnl_and_derivatives: bench/ reads that method's
        # call count as the Newton evaluations after this first one.
        site, d1, d2 = self.kernel.derivatives(coef, exps, t)
        self._charge_regions(1)
        return coef, exps, logscale, self._finish_derivatives(site, d1, d2, logscale)

    def edge_lnl_and_derivatives(self, coef, exps, logscale, t: float):
        """(lnL, dlnL/dt, d²lnL/dt²) of the edge function at ``t``."""
        site, d1, d2 = self.kernel.derivatives(coef, exps, t)
        self._charge_regions(1)
        return self._finish_derivatives(site, d1, d2, logscale)

    def _finish_derivatives(self, site, d1, d2, logscale):
        """Reduce per-pattern (site, d1, d2) to (lnL, dlnL/dt, d²lnL/dt²)."""
        site = np.maximum(site, _TINY)
        p = self.rate_model.p_invariant
        if p > 0.0:
            # +I mixing: the invariant term is a constant offset, so the
            # derivatives divide by the mixed likelihood in scaled space.
            lnl = float(self.weights @ self._site_logl(site, logscale))
            adj = (p / (1.0 - p)) * self._inv_lik * np.exp(
                np.clip(-logscale, None, 700.0)
            )
            denom = site + adj
        else:
            lnl = float(self.weights @ (np.log(site) + logscale))
            denom = site
        g = float(self.weights @ (d1 / denom))
        h = float(self.weights @ ((d2 * denom - d1 * d1) / (denom * denom)))
        return lnl, g, h

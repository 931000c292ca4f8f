"""Felsenstein-pruning likelihood engine, vectorized over patterns.

The engine is the execution layer of a three-layer likelihood core that
mirrors the structure of RAxML's:

* the **traversal planner** (:mod:`repro.likelihood.plan`) diffs tree
  state against a CLV cache and emits an ordered list of CLV operations
  — the analogue of RAxML's traversal descriptor;
* a **kernel backend** (:mod:`repro.likelihood.kernels`) executes every
  pattern-axis computation over the engine's shard list and charges the
  :class:`OpCounter`; backends are pluggable (``reference``/``batched``);
* this module walks plans, multiplies child contributions, rescales,
  and reduces per-pattern results to weighted log-likelihoods.

Threaded execution is not a separate class: passing a
:class:`~repro.threads.pool.VirtualThreadPool` shards the pattern axis
into one slice per worker and charges one parallel region of simulated
time per kernel sweep.  Because kernels write per-shard slices of the
same full-pattern arrays and all reductions run once over the full axis,
serial and threaded results are **bit-identical by construction**, for
any thread count and either kernel backend.

Other structural features retained from the original engine:

* two rate-heterogeneity modes: ``gamma`` (a mixture — every pattern is
  evaluated under every category, GTRGAMMA) and ``cat`` (each pattern is
  assigned to exactly one rate category, GTRCAT);
* per-pattern log-scalers avoid underflow on large trees;
* "down" partials (postorder, subtree below each node) and "up" partials
  (preorder, rest-of-tree seen from above) support O(1)-per-edge
  likelihood evaluation for branch optimisation and lazy SPR scoring.
"""

from __future__ import annotations

import numpy as np

from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels import get_kernel
from repro.likelihood.kernels.base import OpCounter, Partial
from repro.likelihood.plan import (
    CLVCache,
    plan_traversal,
    subtree_postorder,
    subtree_signatures,
)
from repro.likelihood.rates import RateModel, subset_rate_model
from repro.obs.recorder import current as _obs_current
from repro.seq.encoding import state_likelihood_rows
from repro.seq.patterns import PatternAlignment
from repro.tree.topology import Node, Tree

#: Smallest value a scaler may take (guards log(0) for impossible patterns).
_TINY = 1e-300

#: Backwards-compatible name: partials predate the kernel split.
_Partial = Partial

__all__ = [
    "LikelihoodEngine",
    "OpCounter",
    "RateModel",
    "subset_rate_model",
]


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
    kernel:
        Kernel backend name (see :func:`repro.likelihood.kernels.get_kernel`).
    clv_cache:
        ``True`` (or a :class:`~repro.likelihood.plan.CLVCache` instance) to
        reuse down partials across evaluations via subtree signatures.  Off
        by default: caching changes how much kernel work a traversal costs,
        which callers measuring op counts must opt into.
    pool:
        Optional :class:`~repro.threads.pool.VirtualThreadPool`.  When set,
        kernels run once per worker's pattern slice and each kernel sweep
        charges one region of simulated parallel time.
    """

    def __init__(
        self,
        pal: PatternAlignment,
        model: GTRModel,
        rate_model: RateModel | None = None,
        weights: np.ndarray | None = None,
        ops: OpCounter | None = None,
        kernel: str = "reference",
        clv_cache: bool | CLVCache = False,
        pool=None,
    ) -> None:
        self.pal = pal
        self.model = model
        self.rate_model = rate_model if rate_model is not None else RateModel.gamma()
        if self.rate_model.kind == "cat":
            p2c = self.rate_model.pattern_to_cat
            if p2c.shape != (pal.n_patterns,):
                raise ValueError(
                    "pattern_to_cat length must equal the number of patterns"
                )
        w = pal.weights if weights is None else np.asarray(weights, dtype=np.float64)
        if w.shape != (pal.n_patterns,):
            raise ValueError("weights length must equal the number of patterns")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        self.weights = np.asarray(w, dtype=np.float64)
        self.ops = ops if ops is not None else OpCounter()
        self.pool = pool
        self.kernel_name = kernel
        if pool is None:
            self._chunk_sizes = [pal.n_patterns]
            shards = [slice(0, pal.n_patterns)]
        else:
            from repro.threads.partition import contiguous_chunks

            shards = contiguous_chunks(pal.n_patterns, pool.n_threads)
            self._chunk_sizes = [c.stop - c.start for c in shards]
        self.kernel = get_kernel(kernel)(
            model, self.rate_model, shards, self.ops, pal.n_patterns
        )
        if isinstance(clv_cache, CLVCache):
            self.clv_cache: CLVCache | None = clv_cache
        else:
            self.clv_cache = CLVCache() if clv_cache else None
        self._tip_rows = state_likelihood_rows()
        # Level-batched backends reuse tip partials across traversals (a
        # tip's down partial depends only on its alignment row); the
        # shared zero log-scaler is what the reference path also produces.
        self._tip_parts: dict[int, Partial] = {}
        self._zero_logscale = np.zeros(pal.n_patterns)
        self._zero_logscale.setflags(write=False)
        # "+I" support: the invariant-site likelihood of each pattern is
        # sum_s pi_s over the states every taxon is compatible with —
        # non-zero only for constant-compatible columns, tree-independent.
        if self.rate_model.p_invariant > 0.0:
            const_mask = np.bitwise_and.reduce(pal.patterns, axis=0)
            self._inv_lik = self._tip_rows[const_mask] @ self.model.pi
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

    def with_model(self, model: GTRModel) -> "LikelihoodEngine":
        """New model parameters invalidate every CLV: fresh cache."""
        return LikelihoodEngine(
            self.pal, model, self.rate_model, self.weights, self.ops,
            kernel=self.kernel_name, clv_cache=self.clv_cache is not None,
            pool=self.pool,
        )

    def with_rate_model(self, rate_model: RateModel) -> "LikelihoodEngine":
        return LikelihoodEngine(
            self.pal, self.model, rate_model, self.weights, self.ops,
            kernel=self.kernel_name, clv_cache=self.clv_cache is not None,
            pool=self.pool,
        )

    def with_weights(self, weights: np.ndarray) -> "LikelihoodEngine":
        """CLVs are weight-independent, so the cache is shared."""
        return LikelihoodEngine(
            self.pal, self.model, self.rate_model, weights, self.ops,
            kernel=self.kernel_name,
            clv_cache=self.clv_cache if self.clv_cache is not None else False,
            pool=self.pool,
        )

    # -- region accounting ---------------------------------------------------

    def _charge_regions(self, n_regions: int) -> None:
        """Charge simulated parallel-region time (threaded mode only)."""
        if self.pool is not None:
            for _ in range(n_regions):
                self.pool.charge_region(self._chunk_sizes, self.n_categories)

    # -- CLV primitives ----------------------------------------------------

    def tip_clv(self, leaf_index: int, patterns: slice | None = None) -> np.ndarray:
        """The (unscaled) tip CLV for one taxon: (m, 4) 0/1 indicators."""
        masks = self.pal.patterns[leaf_index]
        if patterns is not None:
            masks = masks[patterns]
        return self._tip_rows[masks]

    def _pmatrices(self, t: float) -> np.ndarray:
        """P(t·r_c) for all categories; shape (k, 4, 4).

        Backends that memoise transition matrices (the level-batched
        kernel keys them by the exact bits of ``t``) serve them here, so
        every engine entry point shares the memo.
        """
        memo = getattr(self.kernel, "pmatrices", None)
        if memo is not None:
            return memo(t)
        return self.model.transition_matrices(t, self.rate_model.rates)

    def _propagate_tip(self, pmats: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Uncharged single-span tip propagation (kept for direct kernel
        tests; plan execution goes through the kernel backend)."""
        table = np.einsum("kab,sb->ksa", pmats, self._tip_rows, optimize=True)
        p2c = None
        if self.is_cat:
            p2c = self.rate_model.pattern_to_cat[: masks.shape[0]]
        return self.kernel._tip_gather_span(table, masks, p2c)

    def _propagate(self, pmats: np.ndarray, clv: np.ndarray) -> np.ndarray:
        """Uncharged single-span propagation (see :meth:`_propagate_tip`).

        ``clv`` may be a tip CLV of shape (m, 4) (category-independent) or
        an internal CLV of shape (m, k, 4) [gamma] / (m, 4) [cat].
        """
        p2c = None
        if self.is_cat:
            p2c = self.rate_model.pattern_to_cat[: clv.shape[0]]
        return self.kernel._propagate_span(pmats, clv, p2c)

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

    def _rescale(
        self, clv: np.ndarray, logscale: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Divide each pattern's CLV by its max entry, accumulating logs."""
        axes = tuple(range(1, clv.ndim))
        mx = np.maximum(clv.max(axis=axes), _TINY)
        shape = (clv.shape[0],) + (1,) * (clv.ndim - 1)
        clv = clv / mx.reshape(shape)
        return clv, logscale + np.log(mx)

    # -- down partials (postorder, plan-driven) -------------------------------

    def _inner_partial(self, node: Node, down: dict[int, Partial]) -> Partial:
        """Combine child contributions into one inner-node down partial."""
        m = self.n_patterns
        acc = None
        logscale = np.zeros(m)
        for child in node.children:
            pmats = self._pmatrices(child.length)
            if child.is_leaf:
                # Tip-specialised kernel: gather from a 16-entry table.
                contrib = self.kernel.propagate_tip(
                    pmats, self.pal.patterns[child.leaf_index]
                )
            else:
                part = down[id(child)]
                contrib = self.kernel.propagate(pmats, part.clv)
                logscale = logscale + part.logscale
            acc = contrib if acc is None else acc * contrib
        acc, logscale = self._rescale(acc, logscale)
        return Partial(acc, logscale)

    def compute_down_partials(
        self, tree: Tree, subtree: Node | None = None
    ) -> dict[int, Partial]:
        """CLV of the subtree below every node, keyed by ``id(node)``.

        Plans the traversal first: with the CLV cache enabled, inner nodes
        whose subtree signature is cached are fetched instead of recomputed
        — after a local move only the root path costs kernel work.

        ``subtree`` restricts the computation to the nodes under (and
        including) one node — used by lazy SPR, where the pruned subtree's
        partial is independent of the rest of the tree.
        """
        plan = plan_traversal(tree, self.clv_cache, subtree)
        rec = _obs_current()
        if rec is not None:
            rec.count("clv.plan_traversals")
            rec.count("clv.plan_tips", plan.n_tip)
            rec.count("clv.cache_hits", plan.n_cached)
            rec.count("clv.cache_misses", plan.n_inner)
        if self.kernel.supports_levels:
            down, executed = self._execute_plan_leveled(plan)
        else:
            down, executed = self._execute_plan(plan)
        # One simulated region per executed inner-node CLV update (at least
        # one: even an all-cached traversal synchronises the workers once).
        if rec is not None:
            rec.count("clv.inner_executed", executed)
        self._charge_regions(max(executed, 1))
        return down

    def _execute_plan(self, plan) -> tuple[dict[int, Partial], int]:
        """Reference op-by-op plan execution (postorder)."""
        down: dict[int, Partial] = {}
        m = self.n_patterns
        executed = 0
        for op in plan.ops:
            node = op.node
            if op.kind == "tip":
                down[id(node)] = Partial(self.tip_clv(node.leaf_index), np.zeros(m))
                continue
            part: Partial | None = None
            if op.kind == "cached":
                part = self.clv_cache.get(op.signature, planned=True)
            if part is None:  # "inner", or a hit evicted since planning
                part = self._inner_partial(node, down)
                executed += 1
                if self.clv_cache is not None:
                    self.clv_cache.put(op.signature, part)
            down[id(node)] = part
        return down, executed

    def _tip_partial(self, leaf_index: int) -> Partial:
        part = self._tip_parts.get(leaf_index)
        if part is None:
            clv = self.tip_clv(leaf_index)
            clv.setflags(write=False)
            part = Partial(clv, self._zero_logscale)
            self._tip_parts[leaf_index] = part
        return part

    def _leaf_spec(self, sigs: dict[int, int], child: Node):
        return (sigs[id(child)], child.length, self.pal.patterns[child.leaf_index])

    def _execute_plan_leveled(self, plan) -> tuple[dict[int, Partial], int]:
        """Level-wise plan execution for ``supports_levels`` backends.

        Each dependency level resolves cache hits first, then hands every
        remaining op — its child edge specs plus inner-child log-scalers
        — to the kernel in one ``level_partials`` batch (the kernel picks
        the stacked-contraction or fused-block regime).  Cache semantics
        match the reference executor: planned hits are re-fetched (and
        recomputed if evicted since planning) and every computed partial
        is put back.
        """
        kern = self.kernel
        cache = self.clv_cache
        sigs = plan.signatures
        down: dict[int, Partial] = {}
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
            node_specs = []
            for op in pending:
                specs = [
                    self._leaf_spec(sigs, child) if child.is_leaf
                    else (sigs[id(child)], child.length, down[id(child)].clv)
                    for child in op.node.children
                ]
                inner_ls = [
                    down[id(c)].logscale
                    for c in op.node.children
                    if not c.is_leaf
                ]
                node_specs.append((specs, inner_ls))
            for op, part in zip(pending, kern.level_partials(node_specs)):
                executed += 1
                if cache is not None:
                    cache.put(op.signature, part)
                down[id(op.node)] = part
        return down, executed

    @staticmethod
    def _subtree_postorder(node: Node):
        return subtree_postorder(node)

    # -- up partials (preorder) ------------------------------------------------

    def compute_up_partials(
        self, tree: Tree, down: dict[int, Partial]
    ) -> dict[int, Partial]:
        """For each non-root node ``v``: the partial *at v's parent* of the
        entire tree minus ``v``'s subtree, keyed by ``id(v)``.

        Together with ``down[v]`` this evaluates the likelihood of the edge
        above ``v`` in O(1) kernel calls (RAxML's "makenewz" setting).
        """
        if self.kernel.supports_levels:
            up = self._up_partials_leveled(tree, down)
            self._charge_regions(
                sum(len(n.children) for n in tree.postorder() if not n.is_leaf)
            )
            return up
        m = self.n_patterns
        up: dict[int, Partial] = {}
        for node in tree.preorder():
            if node.is_leaf:
                continue
            if node is tree.root:
                above: Partial | None = None
            else:
                above_raw = up[id(node)]
                # Transport the parent-side partial across this node's edge.
                moved = self.kernel.propagate(
                    self._pmatrices(node.length), above_raw.clv
                )
                above = Partial(moved, above_raw.logscale)
            # Sibling contributions at this node, for each child.
            contribs = []
            for child in node.children:
                pmats = self._pmatrices(child.length)
                if child.is_leaf:
                    contrib = self.kernel.propagate_tip(
                        pmats, self.pal.patterns[child.leaf_index]
                    )
                    logscale_c = np.zeros(m)
                else:
                    part = down[id(child)]
                    contrib = self.kernel.propagate(pmats, part.clv)
                    logscale_c = part.logscale
                contribs.append(Partial(contrib, logscale_c))
            for i, child in enumerate(node.children):
                acc = None
                logscale = np.zeros(m)
                for j, sib in enumerate(contribs):
                    if i == j:
                        continue
                    acc = sib.clv if acc is None else acc * sib.clv
                    logscale = logscale + sib.logscale
                if above is not None:
                    acc = acc * above.clv if acc is not None else above.clv
                    logscale = logscale + above.logscale
                acc, logscale = self._rescale(acc, logscale)
                up[id(child)] = Partial(acc, logscale)
        self._charge_regions(
            sum(len(n.children) for n in tree.postorder() if not n.is_leaf)
        )
        return up

    def _up_partials_leveled(
        self, tree: Tree, down: dict[int, Partial]
    ) -> dict[int, Partial]:
        """Level-wise up-partial sweep for ``supports_levels`` backends.

        Internal nodes are grouped by depth (parents strictly before
        children, so each node's own up partial exists when its level
        runs) and each level is handed to the kernel in one
        ``up_level_partials`` batch: every node's parent-side partial
        (for the kernel to transport across the node's own edge), its
        child edge specs, and the children's down log-scalers, all in
        child order.  The kernel picks the stacked-contribution or
        fused-block regime; products and rescales follow the reference
        order exactly — siblings in child order, the transported
        parent-side partial last.
        """
        kern = self.kernel
        sigs = subtree_signatures(tree.postorder())
        up: dict[int, Partial] = {}
        levels: list[list[Node]] = []
        frontier = [tree.root]
        while frontier:
            levels.append(frontier)
            frontier = [
                ch for node in frontier for ch in node.children if not ch.is_leaf
            ]
        for level in levels:
            node_specs = []
            for node in level:
                if node is tree.root:
                    above = None
                else:
                    raw = up[id(node)]
                    above = (node.length, raw.clv, raw.logscale)
                specs = [
                    self._leaf_spec(sigs, child) if child.is_leaf
                    else (sigs[id(child)], child.length, down[id(child)].clv)
                    for child in node.children
                ]
                inner_ls = [
                    None if child.is_leaf else down[id(child)].logscale
                    for child in node.children
                ]
                node_specs.append((above, specs, inner_ls))
            for node, parts in zip(level, kern.up_level_partials(node_specs)):
                for child, part in zip(node.children, parts):
                    up[id(child)] = part
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

        The per-pattern vector is reduced once over the full pattern axis
        regardless of sharding, so the value is bit-identical for serial
        and threaded execution.
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
            self._as_full(up_v.clv), self._pmatrices(t), self._as_full(down_v.clv)
        )
        self._charge_regions(1)
        logl = self._site_logl(site, down_v.logscale + up_v.logscale)
        return float(self.weights @ logl)

    def partial_for(self, partials: dict[int, Partial], node: Node) -> Partial:
        """Partial lookup in a map returned by the compute methods (kept as
        a method so historical call sites survive; the threaded engine once
        returned chunked lists needing a real indirection here)."""
        return partials[id(node)]

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
            self._pmatrices(half),
            self._pmatrices(t_sub),
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

        Returns ``(coef, exps, logscale, (lnl, g, h))``.  Backends that
        provide a fused ``sumtable_with_derivatives`` evaluate each
        coefficient span while it is cache-hot; others fall back to the
        separate :meth:`edge_coefficients` + :meth:`edge_lnl_and_derivatives`
        calls.  Results, op charges, and region charges are identical
        either way.
        """
        fused = getattr(self.kernel, "sumtable_with_derivatives", None)
        if fused is None:
            coef, exps, logscale = self.edge_coefficients(down_v, up_v)
            first = self.edge_lnl_and_derivatives(coef, exps, logscale, t)
            return coef, exps, logscale, first
        coef, exps, site, d1, d2 = fused(
            self._as_full(up_v.clv), self._as_full(down_v.clv), t
        )
        self._charge_regions(2)  # the sumtable sweep + the derivative sweep
        logscale = down_v.logscale + up_v.logscale
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

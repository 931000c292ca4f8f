"""Felsenstein-pruning likelihood engine, vectorized over patterns.

The engine is the execution layer of a three-layer likelihood core that
mirrors the structure of RAxML's:

* the **traversal planner** (:mod:`repro.likelihood.plan`) groups a
  tree's nodes into dependency levels and signs each subtree — the
  analogue of RAxML's traversal descriptor;
* the **kernel** (:class:`~repro.likelihood.kernels.base.KernelBackend`)
  executes every pattern-axis computation, each as one sweep over the
  whole axis, and charges the :class:`OpCounter`;
* this module walks plans level by level, fetches each inner node the
  CLV cache holds, hands the rest to the kernel, and reduces per-pattern
  results to weighted log-likelihoods.

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
* a tip's down partial is compact (:class:`TipPartials`): its 16 mask
  rows, or under CAT one row per (mask, category) class, and each
  pattern's class;
* on large alignments a down partial is computed once per distinct
  sub-column of its clade (site repeats, :class:`SiteClasses`) and kept
  compact, one row per class, in down maps and the CLV cache;
* "down" partials (postorder, subtree below each node) and "up" partials
  (preorder, rest-of-tree seen from above; only on the root paths of the
  edges a caller reads, charged as the full sweep) support O(1)-per-edge
  likelihood evaluation for branch optimisation and lazy SPR scoring.
"""

from __future__ import annotations

from collections import OrderedDict

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
from repro.likelihood.plan import CLVCache, TraversalPlan, plan_traversal
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


def _fold(
    a: np.ndarray, na: int, b: np.ndarray, nb: int, m: int
) -> tuple[np.ndarray, int]:
    """The classes of the label pairs ``(a[p], b[p])`` over the ``m``
    patterns ``p``, where labels lie below ``na`` and ``nb``: each
    pattern's class, numbered densely, and the class count.  Up to 4m
    pairs are told apart by a table indexed by ``a·nb + b``; past that,
    by ``np.unique``."""
    key = a.astype(np.intp) * nb + b
    if na * nb > 4 * m:
        classes, index = np.unique(key, return_inverse=True)
        return index.reshape(-1), len(classes)
    used = np.zeros(na * nb, dtype=bool)
    used[key] = True
    label = np.cumsum(used) - 1
    return label[key], int(label[-1]) + 1


def _entry(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A class table's ``(index, reps)`` from each pattern's class (of
    ``n``): the index and one row of each class, both as the smallest
    unsigned ints that hold them."""
    m = len(index)
    reps = np.empty(n, dtype=np.min_scalar_type(m - 1))
    reps[index] = np.arange(m)  # any row of a class represents it
    return index.astype(np.min_scalar_type(n - 1)), reps


class TipPartials(dict):
    """Every tip's down partial by leaf index, built on first use and
    compact: class rows plus each pattern's class, read like a site-repeat
    partial (RAxML's tip cases look each pattern's state up in a 16-row
    table).  Under Γ the rows are the 16 mask rows of ``TIP_ROWS``,
    broadcast read-only over the k categories, and the index is the
    taxon's masks; under CAT a class is a (mask, category) pair, numbered
    densely, so each class row moves by one category.  They depend on the
    alignment, the kernel's row shape and the CAT categories only:
    sibling engines share them while :meth:`serves` holds."""

    def __init__(self, patterns: np.ndarray, p2c: np.ndarray | None, shape: tuple) -> None:
        super().__init__()
        self.patterns, self.p2c, self.shape = patterns, p2c, shape
        self.zeros = np.zeros(patterns.shape[1])
        self.zeros.setflags(write=False)

    def serves(self, p2c: np.ndarray | None, shape: tuple) -> bool:
        """Whether these partials hold for rows of ``shape`` under
        categories ``p2c``."""
        if shape != self.shape or (p2c is None) != (self.p2c is None):
            return False
        return p2c is self.p2c or np.array_equal(p2c, self.p2c)

    def __missing__(self, leaf_index: int) -> Partial:
        masks = self.patterns[leaf_index]
        if self.p2c is None:
            rows, index = np.broadcast_to(TIP_ROWS[:, None], (16, *self.shape)), masks
        else:
            index, reps = _entry(*_fold(masks, 16, self.p2c, int(self.p2c.max()) + 1, len(masks)))
            rows = TIP_ROWS[masks[reps]]
            rows.setflags(write=False)
        part = self[leaf_index] = Partial(rows, self.zeros, index)
        return part


class SiteClasses:
    """Site repeats (Kobert, Stamatakis & Flouri, Syst. Biol. 2017): the
    patterns whose sub-columns agree on a clade's taxa — and, under CAT,
    whose categories agree — have equal down partials at the clade's
    root, so each such class needs computing once.

    A clade's entry is ``(index, reps)``: the class of every pattern and
    one row of each class, both as the smallest unsigned ints that hold
    them.  Entries are keyed by leaf set (a bitmask of ``leaf_index``), so
    they outlive tree copies, moves and branch-length changes, and are
    built from the children's entries, a tip's being its partial's
    classes (:class:`TipPartials`: masks, and under CAT categories).  A
    clade with more than m/2 classes is stored as ``None``: the class
    count never falls towards the root, so its ancestors are ``None``
    unhashed.  At most ``capacity`` clades are kept, least recently used
    first out.
    """

    def __init__(self, tips: TipPartials, capacity: int) -> None:
        self.tips = tips
        self.capacity = capacity
        self._store: OrderedDict[int, tuple[np.ndarray, np.ndarray] | None] = OrderedDict()

    def of(
        self, node: Node, leafsets: dict[int, int]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The entry of ``node``'s clade, built on a miss; ``leafsets``
        holds every node's leaf set, by ``id``."""
        key = leafsets[id(node)]
        if key in self._store:
            self._store.move_to_end(key)
            return self._store[key]
        entry = self._build(node, leafsets)
        self._store[key] = entry
        if len(self._store) > self.capacity:
            self._store.popitem(last=False)
        return entry

    def _build(self, node: Node, leafsets: dict[int, int]):
        labels = []
        for ch in node.children:
            if ch.is_leaf:
                tip = self.tips[ch.leaf_index]
                labels.append((tip.index, len(tip.clv)))
                continue
            entry = self.of(ch, leafsets)
            if entry is None:
                return None
            labels.append((entry[0], len(entry[1])))
        index, n = labels[0]
        m = len(index)
        for b, nb in labels[1:]:
            index, n = _fold(index, n, b, nb, m)
            if n > m // 2:
                return None
        return _entry(index, n)


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

    Tip partials are compact (:class:`TipPartials`), and at the kernel's
    ``fuse_min_patterns`` patterns and above so are the down partials of
    clades with few site-repeat classes (:class:`SiteClasses`): one row
    per class, which every kernel call takes as :attr:`Partial.operand`.
    The sibling engines of :meth:`with_model` and :meth:`with_weights`
    share both tables.
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
        """The model-dependent state: a new kernel, the tip partials and
        site classes if the categories or the row shape changed, and the
        "+I" table."""
        pal = self.pal
        if rate_model.kind == "cat" and rate_model.pattern_to_cat.shape != (pal.n_patterns,):
            raise ValueError("pattern_to_cat length must equal the number of patterns")
        self.model, self.rate_model = model, rate_model
        self.kernel = kernel_class(model, rate_model, self.ops, pal.n_patterns, pal.n_taxa)
        p2c, shape = rate_model.pattern_to_cat, self.kernel.clv_shape[1:]
        tips = self.__dict__.get("_tips")
        if tips is None or not tips.serves(p2c, shape):
            self._tips = TipPartials(pal.patterns, p2c, shape)
            self._classes = (
                None if pal.n_patterns < kernel_class.fuse_min_patterns
                else SiteClasses(self._tips, clv_entries(pal.n_taxa))
            )
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

    def _with(
        self, *, fresh_cache: bool, model=None, rate_model=None, weights=None
    ) -> "LikelihoodEngine":
        """A sibling engine with a new kernel, differing in the given
        constructor arguments, over this engine's tip partials and site
        classes (while they serve) and its CLV cache or (``fresh_cache``) an empty
        one of the same capacity."""
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

    def _child_specs(
        self, node: Node, sigs: dict[int, int], down: dict[int, Partial]
    ) -> tuple[list[LevelSpec], list[np.ndarray | None]]:
        """What the kernel needs of ``node``'s children, in child order:
        the edge specs (each payload a down partial's
        :attr:`~Partial.operand`) and the down log-scalers (``None`` for
        leaves, whose scalers are exact zeros)."""
        specs, logscales = [], []
        for child in node.children:
            part = down[id(child)]
            # ``operand`` spelled out: it runs per child of every node.
            payload = part.clv if part.index is None else (part.clv, part.index)
            specs.append((sigs[id(child)], child.length, payload))
            logscales.append(None if child.is_leaf else part.logscale)
        return specs, logscales

    # -- down partials (postorder levels, plan-driven) -------------------------

    def compute_down_partials(
        self, tree: Tree, subtree: Node | None = None
    ) -> dict[int, Partial]:
        """CLV of the subtree below every node, keyed by ``id(node)``; the
        map's ``signatures`` are the plan's, which the up sweep reuses.

        With the CLV cache enabled, inner nodes whose subtree signature is
        cached are fetched instead of recomputed — after a local move only
        the root path costs kernel work.

        ``subtree`` restricts the computation to the nodes under (and
        including) one node — used by lazy SPR, where the pruned subtree's
        partial is independent of the rest of the tree.
        """
        if len(self._sig_memo) > 8 * clv_entries(self.pal.n_taxa):
            self._sig_memo.clear()
        plan = plan_traversal(tree, subtree, self._sig_memo)
        down, hits, executed = self._execute_plan(plan)
        rec = _obs_current()
        if rec is not None:
            rec.count("clv.plan_traversals")
            rec.count("clv.plan_tips", len(plan.levels[0]))
            rec.count("clv.cache_hits", hits)
            rec.count("clv.cache_misses", executed)
            rec.count("clv.inner_executed", executed)
        # One simulated region per executed inner-node CLV update (at least
        # one: even an all-cached traversal synchronises the workers once).
        self._charge_regions(max(executed, 1))
        return down

    def _execute_plan(self, plan: TraversalPlan) -> tuple[DownPartials, int, int]:
        """Level-wise plan execution: the partials, the cache hits and the
        inner nodes computed.

        Each inner node is decided once: a :meth:`CLVCache.probe` hit is
        fetched; a node whose clade has 2 to m/2 site-repeat classes
        (:class:`SiteClasses`, large alignments only) is computed and kept
        compact (:meth:`KernelBackend.repeat_partial`); the rest of the
        level is one ``level_partials`` batch.  Computed partials are
        put back in level order — so CLV-cache traffic, and with it op
        totals under eviction, cannot depend on how the kernel cuts the
        pattern axis.  The P-matrices of every inner node's child edges
        are built first, in one uncharged batch (:meth:`KernelBackend.build_pmatrices`).
        """
        cache = self.clv_cache
        sigs = plan.signatures
        tips, *inner = plan.levels
        self.kernel.build_pmatrices(
            [ch.length for level in inner for node in level for ch in node.children]
        )
        down = DownPartials((id(leaf), self._tips[leaf.leaf_index]) for leaf in tips)
        down.signatures = sigs
        leafsets = None
        if self._classes is not None:
            leafsets = {id(leaf): 1 << leaf.leaf_index for leaf in tips}
            for level in inner:
                for node in level:
                    bits = 0
                    for ch in node.children:
                        bits |= leafsets[id(ch)]
                    leafsets[id(node)] = bits
        hits = executed = 0
        for level in inner:
            pending = []
            for node in level:
                sig = sigs[id(node)]
                if cache is not None and cache.probe(sig):
                    down[id(node)] = cache.get(sig)
                    hits += 1
                else:
                    pending.append(node)
            if not pending:
                continue
            specs = [self._child_specs(node, sigs, down) for node in pending]
            parts = (
                self.kernel.level_partials(specs) if leafsets is None
                else self._repeat_level(pending, specs, leafsets)
            )
            for node, part in zip(pending, parts):
                if cache is not None:
                    cache.put(sigs[id(node)], part)
                down[id(node)] = part
            executed += len(pending)
        return down, hits, executed

    def _repeat_level(
        self, nodes: list[Node], specs: list, leafsets: dict[int, int]
    ) -> list[Partial]:
        """The down partials of one level's computed nodes, in order: on
        one row per site-repeat class where the clade has 2 to m/2 of
        them, the rest as one level batch."""
        classes = [self._classes.of(node, leafsets) for node in nodes]
        # One class is one row, which takes BLAS's matrix-vector routines.
        classes = [c if c is not None and len(c[1]) > 1 else None for c in classes]
        rest = [s for s, c in zip(specs, classes) if c is None]
        batch = iter(self.kernel.level_partials(rest) if rest else ())
        return [
            next(batch) if c is None else self.kernel.repeat_partial(*s, *c)
            for s, c in zip(specs, classes)
        ]

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
        per node, the child specs of :meth:`_child_specs` plus, below the
        root, the parent-side partial to transport across the node's own
        edge.

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
                specs, logscales = self._child_specs(node, sigs, down)
                if node is not tree.root:
                    above = up[id(node)]
                    specs.append((None, node.length, above.clv))
                    logscales.append(above.logscale)
                run.append(node)
                node_specs.append((specs, logscales, len(node.children)))
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
        site = self.kernel.root_site(root_partial.clv)
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
        site = self.kernel.edge_site(up_v.clv, self.kernel.pmatrices(t), down_v.operand)
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
            down_v.operand, up_v.clv, down_s.operand,
            self.kernel.pmatrices(half), self.kernel.pmatrices(t_sub),
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
        coef, exps = self.kernel.sumtable(up_v.clv, down_v.operand)
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

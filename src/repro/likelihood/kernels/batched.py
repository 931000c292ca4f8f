"""Level-batched tensor kernel backend.

Where the reference backend answers one ``propagate`` call per child
edge, this backend executes whole *traversal levels*
(:meth:`repro.likelihood.plan.TraversalPlan.levels`): every child
contribution a level needs is requested in one
:meth:`~BatchedKernel.level_contribs` call, which

* serves repeated subtrees from a **contribution LRU** keyed by
  ``(subtree signature, branch-length bits)`` — across the repeated
  up-partial sweeps of an SPR round most child edges are unchanged, so
  their propagated contributions are literally the same float64 arrays
  and are reused instead of recomputed;
* stacks the remaining propagations of a level into a single
  ``(nodes, patterns, rates, states)`` ``matmul`` when the stacked operands
  stay cache-resident (small pattern counts, where per-call dispatch
  overhead dominates);
* switches to a **fused block pipeline** at large pattern counts
  (:meth:`~BatchedKernel.level_partials`): each node's child
  propagations, product, and rescale run block-by-block so every
  intermediate stays L2-resident instead of streaming full-pattern
  temporaries through memory three times — the likelihood loops are
  bandwidth-bound there, and this roughly halves the traffic;
* memoises propagated tip tables by the exact float64 bit pattern of
  the branch length, next to the base class's transition-matrix memo.

Everything else — the per-level flow over ``level_contribs`` and
``combine``, the up-sweep's leave-one-out products, insertion scoring —
is the base class's; this backend overrides only the steps it executes
differently.

Bit-identity with the reference backend is preserved operation by
operation: every reused array was produced by the reference arithmetic
for identical operands, the stacked contraction and the block-wise
``matmul`` both dispatch to the same per-matrix BLAS products as the
per-node form (property-tested), blocking the pattern axis cannot change
any bits because every per-pattern value depends only on that pattern's
operands, and the fused product/rescale paths perform the same
operations in the same order with preallocated outputs.  Op accounting
is *charge-neutral*: a contribution served from the LRU still charges a
CLV update — reuse is a wall-clock optimisation, not less logical work —
so :class:`~repro.likelihood.kernels.base.OpCounter` snapshots are
exactly equal to the reference backend's on any call sequence (the
engine runs both through one executor, so CLV-cache traffic is equal
too).
"""

from __future__ import annotations

import numpy as np

from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels.base import (
    _TINY,
    ArrayLRU,
    KernelBackend,
    LevelSpec,
    OpCounter,
    Partial,
    _mask_table,
    _propagate_stacked,
    length_bits,
)
from repro.likelihood.rates import RateModel

#: One fused-pipeline input: ``("ready", contribution, None)``,
#: ``("tip", category-major tip table, masks)`` or
#: ``("edge", transposed P-matrices, CLV)``.
FusedInput = tuple[str, np.ndarray, np.ndarray | None]


def _contrib_key(spec: LevelSpec) -> tuple[int, int]:
    """Contribution-LRU key of a child edge: the planner's subtree
    signature plus the branch-length bits, so cache granularity matches
    plans."""
    return spec[0], length_bits(spec[1])


class BatchedKernel(KernelBackend):
    """Level-batched backend with contribution/tip-table memoisation."""

    name = "batched"

    #: Byte budget for the contribution LRU.  Entries are full-pattern
    #: CLVs (``m·k·4`` float64), so the capacity adapts to the pattern
    #: count; the floor keeps small test alignments from thrashing.
    contrib_budget_bytes = 1 << 30
    #: Stack a level's propagations into one tensor contraction only
    #: while operands + output fit in cache; beyond this the per-node
    #: BLAS batches win and the stack copy is pure overhead.
    stack_budget_bytes = 1 << 22
    #: Pattern-block length of the fused per-node pipeline: the
    #: propagated child blocks plus the accumulator (3 · B·k·4 doubles ≈
    #: 1.5 MiB at B=4096, k=4) stay cache-resident across the whole
    #: propagate→product→rescale chain.  Profiled best at 4096 on the
    #: 19.4k-pattern up-sweep (~10% over 2048 — fewer ufunc dispatches
    #: per sweep; 8192+ starts spilling the accumulator out of L2).
    fuse_block = 4096
    #: Run the fused pipeline only above this many patterns (gamma
    #: mode); smaller alignments fit in cache anyway and the stacked
    #: level contraction amortises dispatch overhead better.
    fuse_min_patterns = 4096

    def __init__(
        self,
        model: GTRModel,
        rate_model: RateModel,
        ops: OpCounter,
        n_patterns: int,
    ) -> None:
        super().__init__(model, rate_model, ops, n_patterns)
        self._tip_lru = ArrayLRU(self.pmat_entries)
        self._tip_cats_lru = ArrayLRU(self.pmat_entries)
        entry = n_patterns * (4 if self.is_cat else self.n_categories * 4) * 8
        self.contrib_entries = max(16, self.contrib_budget_bytes // max(entry, 1))
        self._contrib_lru = ArrayLRU(self.contrib_entries)
        self._ins_memo: tuple | None = None
        self._buffers: dict[tuple, np.ndarray] = {}

    # -- memoised per-branch tables -------------------------------------------

    def _tip_table(self, t: float) -> np.ndarray:
        """The propagated CLV of each of the 16 IUPAC masks for ``t``.

        Stored ``(16, k, 4)`` in gamma mode so the per-pattern gather
        ``table[masks]`` is one contiguous fancy index — the same values
        (hence the same bits) as the reference's transpose-and-copy
        gather.  CAT mode keeps the reference ``(k, 16, 4)`` layout.
        """
        def build() -> np.ndarray:
            raw = _mask_table(self.pmatrices(t), self.tip_rows)
            if self.is_cat:
                return raw
            return np.ascontiguousarray(raw.transpose(1, 0, 2))

        return self._tip_lru.get(length_bits(t), build)

    def _tip_table_cats(self, t: float) -> np.ndarray:
        """The gamma tip table in category-major ``(k, 16, 4)`` layout,
        so the fused pipeline can gather each category's rows into a
        contiguous block with :func:`np.take` (a strided gather view as
        a multiply operand costs ~6x a contiguous one)."""
        return self._tip_cats_lru.get(
            length_bits(t),
            lambda: np.ascontiguousarray(self._tip_table(t).transpose(1, 0, 2)),
        )

    # -- scratch management ---------------------------------------------------

    def _buffer(self, shape: tuple[int, ...], tag: str = "") -> np.ndarray:
        """A reusable scratch array; never escapes a public call.

        ``tag`` distinguishes buffers that must coexist within one call
        despite sharing a shape (e.g. the fused pipeline's per-child
        propagation blocks)."""
        key = (tag, *shape)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape)
            self._buffers[key] = buf
        return buf

    # -- level execution ------------------------------------------------------

    def level_contribs(self, specs: list[LevelSpec]) -> list[np.ndarray]:
        """Propagated child contributions for one traversal level.

        Repeats are served from the contribution LRU; the rest run
        batched (see the module docstring).  Charges one CLV update per
        spec *regardless of cache hits* — accounted work must match what
        the reference backend would do.
        """
        keys = [_contrib_key(spec) for spec in specs]
        out = [self._contrib_lru.get(key) for key in keys]
        inner: list[int] = []
        for i, (_, t, payload) in enumerate(specs):
            if out[i] is not None:
                continue
            if payload.ndim == 1:
                out[i] = self._contrib_lru.put(keys[i], self._tip_contrib(t, payload))
            else:
                inner.append(i)
        if inner:
            self._inner_contribs(specs, keys, inner, out)
        self.ops.charge_clv(self.n_patterns, self.n_categories, n=len(specs))
        return out

    def _tip_contrib(self, t: float, masks: np.ndarray) -> np.ndarray:
        return self._sweep(
            self._tip_rows_span, masks, self._p2c, table=self._tip_table(t)
        )

    def _tip_rows_span(
        self, masks: np.ndarray, p2c: np.ndarray | None, table: np.ndarray
    ) -> np.ndarray:
        """One span of tip contributions: rows of :meth:`_tip_table`."""
        return table[p2c, masks] if self.is_cat else table[masks]

    def _stacked_span(self, cstack: np.ndarray, pstack: np.ndarray) -> np.ndarray:
        """:func:`_propagate_stacked` for one span of ``q`` stacked edges,
        pattern axis first on the way in and out (``(n, q, k, 4)`` views),
        as :meth:`_sweep` cuts it."""
        return _propagate_stacked(
            pstack, cstack.transpose(1, 0, 2, 3)
        ).transpose(1, 0, 2, 3)

    def _inner_contribs(
        self, specs: list[LevelSpec], keys: list[tuple[int, int]],
        idxs: list[int], out: list,
    ) -> None:
        m, k = self.n_patterns, self.n_categories
        q = len(idxs)
        stacked = 2 * q * m * k * 4 * 8
        if self.is_cat or q < 2 or stacked > self.stack_budget_bytes:
            for i in idxs:
                _, t, clv = specs[i]
                out[i] = self._contrib_lru.put(keys[i], self._sweep(
                    self._propagate_span, clv, self._p2c, pmats=self.pmatrices(t)
                ))
            return
        # One (nodes, patterns, rates, states) contraction.  The stacked
        # matmul dispatches to the same per-matrix BLAS products as the
        # per-node form, so the result bits are equal (property-tested in
        # tests/test_kernel_contractions.py).
        pstack = np.stack([self.pmatrices(specs[i][1]) for i in idxs])
        cstack = np.stack([specs[i][2] for i in idxs])
        res = self._sweep(
            self._stacked_span, cstack.transpose(1, 0, 2, 3), pstack=pstack
        ).transpose(1, 0, 2, 3)
        for j, i in enumerate(idxs):
            out[i] = self._contrib_lru.put(keys[i], res[j])

    @property
    def _fused(self) -> bool:
        """Large gamma alignments run the fused block pipeline; small
        ones (and CAT mode) the inherited per-level flow over
        :meth:`level_contribs` and :meth:`combine`."""
        return not self.is_cat and self.n_patterns >= self.fuse_min_patterns

    def level_partials(
        self, nodes: list[tuple[list[LevelSpec], list[np.ndarray | None]]]
    ) -> list[Partial]:
        """Down partials of one level; see the base class for the contract.

        In the fused regime each node runs :meth:`_fused_node`: per
        pattern block, propagate each child, multiply, rescale, and write
        out, so no full-pattern temporary is ever materialised.
        Contribution-LRU hits are folded in as ready arrays; fresh
        propagations are not memoised there, since materialising them
        would re-spend the memory traffic the fusion exists to avoid.
        Charges are the inherited flow's.
        """
        if not self._fused:
            return super().level_partials(nodes)
        parts = [self._fused_node(specs, lss)[0] for specs, lss in nodes]
        self.ops.charge_clv(
            self.n_patterns, self.n_categories,
            n=sum(len(specs) for specs, _ in nodes),
        )
        return parts

    def up_level_partials(self, nodes) -> list[list[Partial]]:
        """Up partials of one preorder level; see the base class.

        In the fused regime, per pattern block, a node transports the
        parent-side partial and every child's down CLV once, then forms
        *all* children's products and rescales from those same resident
        blocks — the transported block is read from cache for every
        child instead of streaming a full-pattern temporary per node.
        Charges are the inherited flow's.
        """
        if not self._fused:
            return super().up_level_partials(nodes)
        out = [
            self._fused_node(specs, lss, above, leave_one_out=True)
            for above, specs, lss in nodes
        ]
        self.ops.charge_clv(
            self.n_patterns, self.n_categories,
            n=sum(len(specs) + (above is not None) for above, specs, _ in nodes),
        )
        return out

    def _fused_node(
        self,
        specs: list[LevelSpec],
        logscales: list[np.ndarray | None],
        above: tuple[float, np.ndarray, np.ndarray] | None = None,
        leave_one_out: bool = False,
    ) -> list[Partial]:
        """One node's partials via the fused block pipeline (gamma).

        The inputs are the child edges plus, last, the parent-side
        partial to transport (``above``).  A down partial is one output
        over all inputs; an up node (``leave_one_out``) has one output
        per child, over every input but that child.

        Bit-identity: ``matmul`` on the ``(k, n, 4)`` transposed views
        issues the same per-category BLAS products as the reference
        ``_propagate_inner``; each product multiplies in input order per
        element; the per-pattern max is exact under any reduction order;
        divide and log are the same ufuncs on the same values.  Blocking
        the pattern axis is invisible to all of them.
        """
        m, k = self.n_patterns, self.n_categories
        inputs = [self._fused_input(spec) for spec in specs]
        if above is not None:
            t_up, aclv, als = above
            inputs.append(self._edge_input(t_up, aclv))
            logscales = logscales + [als]
        everything = range(len(inputs))
        if leave_one_out:
            picks = [[j for j in everything if j != i] for i in range(len(specs))]
        else:
            picks = [list(everything)]
        clvs = [np.empty((m, k, 4)) for _ in picks]
        logmxs = [np.empty(m) for _ in picks]
        for lo in range(0, m, self.fuse_block):
            hi = min(lo + self.fuse_block, m)
            blks = self._input_blocks(inputs, lo, hi)
            for pick, clv, logmx in zip(picks, clvs, logmxs):
                self._product_rescale_block(
                    [blks[j] for j in pick], clv[lo:hi], logmx[lo:hi]
                )
        return [
            Partial(
                clv,
                self._sum_logscales(
                    [logscales[j] for j in pick if logscales[j] is not None],
                    logmx,
                ),
            )
            for pick, clv, logmx in zip(picks, clvs, logmxs)
        ]

    def _edge_input(self, t: float, clv: np.ndarray) -> FusedInput:
        return "edge", np.ascontiguousarray(self.pmatrices(t).transpose(0, 2, 1)), clv

    def _fused_input(self, spec: LevelSpec) -> FusedInput:
        hit = self._contrib_lru.get(_contrib_key(spec))
        if hit is not None:
            return "ready", hit, None
        _, t, payload = spec
        if payload.ndim == 1:
            return "tip", self._tip_table_cats(t), payload
        return self._edge_input(t, payload)

    def _input_blocks(
        self, inputs: list[FusedInput], lo: int, hi: int
    ) -> list[np.ndarray]:
        """One pattern block of every fused-pipeline input, in input
        order: memoised contributions as transposed views, tip gathers
        and edge propagations into contiguous ``(k, n, 4)`` scratch (a
        strided view as a multiply operand costs several times a
        contiguous block; ``matmul`` on the transposed view issues the
        reference propagation's per-category BLAS products)."""
        k = self.n_categories
        n = hi - lo
        blks: list[np.ndarray] = []
        for i, (kind, table, payload) in enumerate(inputs):
            if kind == "ready":
                blks.append(table[lo:hi].transpose(1, 0, 2))
                continue
            buf = self._buffer((k, self.fuse_block, 4), f"fuse-edge{i}")[:, :n]
            if kind == "tip":
                idx = payload[lo:hi]
                for j in range(k):
                    np.take(table[j], idx, axis=0, out=buf[j])
            else:
                np.matmul(payload[lo:hi].transpose(1, 0, 2), table, out=buf)
            blks.append(buf)
        return blks

    def _product_rescale_block(
        self, parts: list[np.ndarray], clv_out: np.ndarray, logmx_out: np.ndarray
    ) -> None:
        """Product of category-major ``(k, n, 4)`` blocks, rescaled into
        one pattern-major block of the output CLV and its log divisors."""
        k, B = self.n_categories, self.fuse_block
        n = clv_out.shape[0]
        acc = self._product(parts, self._buffer((k, B, 4), "fuse-acc")[:, :n])
        s4 = self._buffer((B, 4), "fuse")[:n]
        s2 = self._buffer((B, 2), "fuse")[:n]
        mx = self._buffer((B,), "fuse")[:n]
        np.fmax.reduce(acc, axis=0, out=s4)
        np.fmax(s4[:, :2], s4[:, 2:], out=s2)
        np.fmax(s2[:, 0], s2[:, 1], out=mx)
        np.maximum(mx, _TINY, out=mx)
        # The divide reads the L2-resident accumulator through a
        # transposed view and writes the cold output contiguously
        # (pattern-major): same quotients, and each output cache line is
        # touched exactly once instead of once per category.
        np.divide(acc.transpose(1, 0, 2), mx[:, None, None], out=clv_out)
        np.log(mx, out=logmx_out)

    @staticmethod
    def _product(parts: list[np.ndarray], buf: np.ndarray) -> np.ndarray:
        """Elementwise product in list order, accumulated in ``buf``
        (memoised contributions are read-only).  A lone part is returned
        as is: callers only read the result."""
        if len(parts) == 1:
            return parts[0]
        np.multiply(parts[0], parts[1], out=buf)
        for extra in parts[2:]:
            np.multiply(buf, extra, out=buf)
        return buf

    @staticmethod
    def _sum_logscales(logscales: list[np.ndarray], logmx: np.ndarray) -> np.ndarray:
        """``logscales`` summed in list order, then ``logmx`` — the
        reference order; ``logmx`` must be the caller's to give away."""
        if not logscales:
            return logmx
        total = logscales[0].copy()
        for extra in logscales[1:]:
            total += extra
        total += logmx
        return total

    def combine(
        self, contribs: list[np.ndarray], logscales: list[np.ndarray]
    ) -> Partial:
        """The reference product + rescale without its temporaries: the
        product accumulates in scratch, the per-pattern max (exact under
        any reduction order) folds by halves, and the divide/log/add
        steps are the same ufuncs in the same order."""
        m = contribs[0].shape[0]
        acc = self._product(contribs, self._buffer(contribs[0].shape))
        mx = self._row_max(acc.reshape(m, -1))
        np.maximum(mx, _TINY, out=mx)
        clv = np.empty_like(acc)
        np.divide(acc, mx.reshape((m,) + (1,) * (acc.ndim - 1)), out=clv)
        return Partial(clv, self._sum_logscales(logscales, np.log(mx)))

    def _row_max(self, flat: np.ndarray) -> np.ndarray:
        """Per-row max of a 2-D view by halving folds (exact, and ~40%
        faster than ``ufunc.reduce`` along the short axis)."""
        cur = flat
        w = flat.shape[1]
        while w > 1 and w % 2 == 0:
            half = w // 2
            buf = self._buffer((flat.shape[0], half))
            np.fmax(cur[:, :half], cur[:, half:], out=buf)
            cur, w = buf, half
        if w > 1:
            return np.fmax.reduce(cur, axis=1)
        return cur[:, 0]

    # -- lazy-SPR insertion ---------------------------------------------------

    def _insertion_transport(
        self, sclv: np.ndarray, pmats_sub: np.ndarray
    ) -> np.ndarray:
        """One memo on the reference transport: ``P(t_sub)·sclv`` is
        identical for every candidate edge of one SPR step, so it is
        computed once per ``(sclv, pmats_sub)`` pair and reused while the
        engine scans candidates."""
        # Identity is judged by data pointer + shape; the memo holds
        # strong references to both operands, so neither address can be
        # recycled by a different array while the memo is alive (the
        # engine re-broadcasts the same subtree CLV per candidate, which
        # changes the view object but not the underlying buffer).
        key = (
            sclv.__array_interface__["data"][0],
            sclv.shape,
            pmats_sub.__array_interface__["data"][0],
        )
        memo = self._ins_memo
        if memo is not None and memo[0] == key:
            return memo[2]
        c3 = super()._insertion_transport(sclv, pmats_sub)
        self._ins_memo = (key, (sclv, pmats_sub), c3)
        return c3

    # -- Newton machinery -----------------------------------------------------

    def sumtable_with_derivatives(
        self, uclv: np.ndarray, dclv: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sumtable build + the first Newton evaluation at ``t`` as one
        sweep: each span's derivatives are evaluated on the coefficients
        it has just built.  Returns ``(coef, exps, site, d1, d2)`` — the
        same arrays the separate :meth:`sumtable` and :meth:`derivatives`
        calls produce, charged as one sumtable plus one derivative
        evaluation.
        """
        coef, exps, site, d1, d2 = self._sweep(
            self._newton_span, uclv, dclv, self._p2c, t=t
        )
        self.ops.charge_sumtable(self.n_patterns, self.n_categories)
        self.ops.charge_deriv(self.n_patterns, self.n_categories)
        return coef, self._exps if exps is None else exps, site, d1, d2

    def _newton_span(
        self, uclv: np.ndarray, dclv: np.ndarray, p2c: np.ndarray | None, t: float
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
        coef, exps = self._sumtable_span(uclv, dclv, p2c)
        table = self._exps if exps is None else exps
        return (coef, exps, *self._derivatives_span(coef, table, t))

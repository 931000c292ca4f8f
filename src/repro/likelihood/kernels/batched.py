"""Level-batched tensor kernel backend.

Where the reference backend answers one ``propagate`` call per child
edge, this backend executes whole *traversal levels*
(:meth:`repro.likelihood.plan.TraversalPlan.levels`) and overrides only
the steps it executes differently:

* :meth:`~BatchedKernel.level_contribs` serves repeated subtrees from a
  **contribution LRU** keyed by ``(subtree signature, branch-length
  bits)`` — across the repeated up-partial sweeps of an SPR round most
  child edges are unchanged, so their propagated contributions are
  literally the same float64 arrays and are reused instead of
  recomputed — and gathers tips from tip tables memoised by the exact
  bit pattern of the branch length, next to the base class's
  transition-matrix memo;
* at large pattern counts :meth:`~BatchedKernel.level_partials` and
  :meth:`~BatchedKernel.up_level_partials` switch to a **fused block
  pipeline**: each node's child propagations, product and scaling run
  block by block over the pattern axis, so every intermediate stays
  L2-resident and no full-pattern temporary is materialised — the
  likelihood loops are bandwidth-bound there.  Blocks are pattern-major
  like every other array of the engine: a block of a memoised
  contribution is a ``[lo:hi]`` slice, a tip block one gather from the
  tip table, an edge block the reference propagation into scratch;
* lazy-SPR insertion scoring transports the pruned subtree once per SPR
  step (:meth:`~BatchedKernel._insertion_transport`).

Bit-identity with the reference backend is preserved operation by
operation: every reused array was produced by the reference arithmetic
for identical operands, the block-wise ``matmul`` is the reference
propagation on a pattern slice (property-tested), blocking the pattern
axis cannot change any bits because every per-pattern value depends only
on that pattern's operands, and product and threshold scaling are the
reference's own function
(:func:`~repro.likelihood.kernels.base._product_rescale`) applied to a
block.  Op accounting is *charge-neutral*: a contribution served from
the LRU still charges a CLV update — reuse is a wall-clock optimisation,
not less logical work — so
:class:`~repro.likelihood.kernels.base.OpCounter` snapshots are exactly
equal to the reference backend's on any call sequence (the engine runs
both through one executor, so CLV-cache traffic is equal too).
"""

from __future__ import annotations

import numpy as np

from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels.base import (
    ArrayLRU,
    KernelBackend,
    LevelSpec,
    OpCounter,
    Partial,
    _mask_table,
    _product_rescale,
    _propagate_inner,
    _sum_logscales,
    length_bits,
)
from repro.likelihood.rates import RateModel

#: One fused-pipeline input: ``("ready", contribution, None)``,
#: ``("tip", the (16, k·4) view of the tip table, masks)`` or
#: ``("edge", P-matrices, CLV)``.
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
    #: Pattern-block length of the fused per-node pipeline: the
    #: propagated child blocks (2 · B·k·4 doubles ≈ 1 MiB at B=4096, k=4
    #: for two children), multiplied straight into the output's rows,
    #: stay cache-resident across the whole propagate→product→scale
    #: chain.  Profiled best at 4096 on the 19.4k-pattern up-sweep (~10%
    #: over 2048; 8192+ spills out of L2).
    fuse_block = 4096
    #: Run the fused pipeline only above this many patterns (gamma
    #: mode); smaller alignments fit in cache anyway, and there the
    #: contribution LRU saves more than the blocks would.
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

    # -- scratch management ---------------------------------------------------

    def _buffer(self, shape: tuple[int, ...], tag: str = "") -> np.ndarray:
        """A reusable scratch array; never escapes a public call.
        ``tag`` distinguishes buffers that must coexist within one call
        despite sharing a shape (the fused pipeline's per-child blocks)."""
        key = (tag, *shape)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape)
            self._buffers[key] = buf
        return buf

    # -- level execution ------------------------------------------------------

    def level_contribs(self, specs: list[LevelSpec]) -> list[np.ndarray]:
        """Propagated child contributions for one traversal level.

        Repeats are served from the contribution LRU; the rest are the
        reference propagations, tips as rows of :meth:`_tip_table`.
        Charges one CLV update per spec *regardless of cache hits* —
        accounted work must match what the reference backend would do.
        """
        out = [
            self._contrib_lru.get(_contrib_key(spec), lambda: self._contrib(*spec[1:]))
            for spec in specs
        ]
        self.ops.charge_clv(self.n_patterns, self.n_categories, n=len(specs))
        return out

    def _contrib(self, t: float, payload: np.ndarray) -> np.ndarray:
        if payload.ndim == 1:
            return self._sweep(
                self._tip_rows_span, payload, self._p2c, table=self._tip_table(t)
            )
        return self._sweep(
            self._propagate_span, payload, self._p2c, pmats=self.pmatrices(t)
        )

    def _tip_rows_span(
        self, masks: np.ndarray, p2c: np.ndarray | None, table: np.ndarray
    ) -> np.ndarray:
        """One span of tip contributions: rows of :meth:`_tip_table`."""
        return table[p2c, masks] if self.is_cat else table[masks]

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
        pattern block, propagate each child, multiply into the output and
        scale it, so no full-pattern temporary is ever materialised.
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
        *all* children's products and scalings from those same resident
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

        Bit-identity: an edge block is ``_propagate_inner`` on a pattern
        slice, and product and scaling are ``combine``'s own
        ``_product_rescale`` on a block, which decides each pattern's
        scaling from that pattern alone.  Blocking the pattern axis is
        invisible to both.
        """
        m, k = self.n_patterns, self.n_categories
        inputs = [self._fused_input(spec) for spec in specs]
        if above is not None:
            t_up, aclv, als = above
            inputs.append(("edge", self.pmatrices(t_up), aclv))
            logscales = logscales + [als]
        everything = range(len(inputs))
        if leave_one_out:
            picks = [[j for j in everything if j != i] for i in range(len(specs))]
        else:
            picks = [list(everything)]
        clvs = [np.empty((m, k, 4)) for _ in picks]
        scales = [np.empty(m) for _ in picks]
        # A one-pattern last block would take BLAS's matrix-vector
        # routines, which round differently: it joins the block before it.
        cuts = [*range(0, m - 1, self.fuse_block), m]
        for lo, hi in zip(cuts, cuts[1:]):
            blks = self._input_blocks(inputs, lo, hi)
            for pick, clv, scale in zip(picks, clvs, scales):
                _product_rescale([blks[j] for j in pick], clv[lo:hi], scale[lo:hi])
        return [
            Partial(
                clv,
                _sum_logscales(
                    [logscales[j] for j in pick if logscales[j] is not None], scale
                ),
            )
            for pick, clv, scale in zip(picks, clvs, scales)
        ]

    def _fused_input(self, spec: LevelSpec) -> FusedInput:
        hit = self._contrib_lru.get(_contrib_key(spec))
        if hit is not None:
            return "ready", hit, None
        _, t, payload = spec
        if payload.ndim == 1:
            return "tip", self._tip_table(t).reshape(16, -1), payload
        return "edge", self.pmatrices(t), payload

    def _input_blocks(
        self, inputs: list[FusedInput], lo: int, hi: int
    ) -> list[np.ndarray]:
        """Patterns ``lo:hi`` of every fused-pipeline input, in input
        order, each ``(n, k, 4)``: memoised contributions as slices, tip
        gathers and edge propagations into scratch."""
        k = self.n_categories
        n = hi - lo
        blks: list[np.ndarray] = []
        for i, (kind, table, payload) in enumerate(inputs):
            if kind == "ready":
                blks.append(table[lo:hi])
                continue
            buf = self._buffer((n, k, 4), f"fuse-edge{i}")
            if kind == "tip":
                # Masks are 4-bit (``PatternAlignment`` checks); "clip" lets
                # take write straight into ``out``, which "raise" buffers.
                np.take(
                    table, payload[lo:hi], axis=0, out=buf.reshape(n, k * 4), mode="clip"
                )
            else:
                _propagate_inner(table, payload[lo:hi], out=buf)
            blks.append(buf)
        return blks

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

"""The likelihood kernel of the engine.

:class:`KernelBackend` owns every pattern-axis computation the engine
issues: CLV propagation (tip tables and generic), the product and
scaling that turn a level's contributions into partials, per-edge site
likelihoods, lazy-SPR insertion scores, the Newton sumtable, and the
derivative evaluations.  The engine decides *what* to compute (traversal
plans, CLV-cache lookups, reductions); the kernel decides *how* each
pattern slice is computed.  There is one kernel, as RAxML has one set of
likelihood functions; its answers are held to the independent pure-Python
reference of ``tests/oracle.py`` and its bits to the runtime goldens.

Sharding.  There is none here.  Every public kernel makes **one sweep
over the whole pattern axis** — one call of its ``_*_span`` primitive on
the full arrays — whatever the thread count: the workers of RAxML's
master/worker decomposition are virtual, so the engine prices their
pattern slices (``VirtualThreadPool.charge_region``) and never hands
them to a kernel.  Serial and threaded runs are therefore one code path
and **bit-identical** by construction.  That the paper's decomposition
would give the same bits is still proved, not assumed: every per-pattern
value depends on that pattern's operands only, every sweep goes through
one hook (:meth:`KernelBackend._sweep`), and the test suites hand the
engine kernel subclasses that tile the axis there — by thread-sized
chunks, by 7-pattern blocks — and hold them to the whole-axis result bit
for bit.

Scaling.  As in RAxML's ``newview``, a partial is rescaled only on
underflow: a pattern whose entries all fall below :data:`SCALE_MIN`
(``minlikelihood``, 2⁻²⁵⁶) is multiplied by exactly 2²⁵⁶ and its
log-scaler gains ``−256 ln 2``; every other pattern is left as the
product made it (:func:`_product_rescale`).  Powers of two round
nothing.  A pattern's largest entry so stays near or above 2⁻²⁵⁶ in
every partial, and the three partials an insertion multiplies stay near
or above 2⁻⁷⁶⁸: normal doubles, far above ``_TINY`` ≈ 2⁻⁹⁹⁷.

Accounting.  Kernels, not the engine, charge the shared
:class:`OpCounter` — exactly once per *logical* invocation with the full
pattern count, so op totals are identical for serial, threaded, and
(cold-)cached runs.

Contractions.  Every contraction is an explicit two-operand
``matmul``/``reshape`` product (the helpers below), never an ``einsum``
that plans a path per call: a planned path is chosen from operand
*shapes*, so results could depend on how the pattern axis is blocked
(``KernelBackend.fuse_block`` still cuts it), and planning costs more
than the product itself at a few hundred patterns.  Only ``U diag(e)
U⁻¹`` changes its association order with a shape, at k = 5 rate
multipliers, keyed by k in :func:`repro.likelihood.gtr._spectral_products`.
One plain ``einsum`` remains, CAT's ``pab,pb->pa``: a single contraction
with no path to plan, which ``bench/``'s smoke trace expects to see.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from repro.likelihood.gtr import GTRModel
from repro.likelihood.rates import RateModel
from repro.seq.encoding import TIP_ROWS

#: Smallest site likelihood the engine takes a log of (guards log(0) for
#: impossible patterns).
_TINY = 1e-300
#: RAxML's ``minlikelihood``: a pattern whose CLV entries all lie below it
#: is scaled by ``1 / SCALE_MIN`` (see :func:`_product_rescale`).
SCALE_MIN = 2.0**-256

_pack_f64 = struct.Struct("<d").pack
_unpack_u64 = struct.Struct("<Q").unpack

#: One child edge of a traversal level: ``(subtree signature, branch
#: length, payload)`` where the payload is a leaf's pattern-mask row
#: (1-D) or the child's down CLV.
LevelSpec = tuple[int, float, np.ndarray]
#: One fused-pipeline input: ``("tip", the (16, k·4) view of the tip
#: table, masks)`` or ``("edge", P-matrices, CLV)``.
FusedInput = tuple[str, np.ndarray, np.ndarray | None]


def length_bits(t: float) -> int:
    """The exact float64 bit pattern of a branch length — two lengths that
    differ in the last ulp produce different CLVs, so this is the key of
    both the planner's subtree signatures and the kernels' memos."""
    return _unpack_u64(_pack_f64(t))[0]


def _contrib_key(spec: LevelSpec) -> tuple[int, int]:
    """Contribution-LRU key of a child edge: the planner's subtree
    signature plus the branch-length bits, so cache granularity matches
    plans."""
    return spec[0], length_bits(spec[1])


# -- contractions ---------------------------------------------------------------
#
# One helper per contraction, named in the subscripts of the path-optimised
# ``einsum`` it replaced and spelled as the product that call lowered to,
# hence the same bits — but for the Γ Newton and site sums (the last two),
# new products oriented so that no pattern's bits depend on how the axis
# is cut (``tests/test_kernel_contractions.py`` holds each to its claim).
# State-axis reductions stay ``matmul`` products: a ``sum`` accumulates in
# another order.  ``np.vecdot`` would say ``_site_dot`` more directly but
# needs NumPy >= 2.0, above the declared ``numpy>=1.24`` floor.


def _propagate_inner(
    pmats: np.ndarray, clv: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``kab,mkb->mka``: per-category ``P_k`` applied to an inner CLV
    ``(m, k, 4)`` — one ``(m, 4) @ (4, 4)`` product per category, each
    written straight into its column of the pattern-major result (a
    category-major result handed on as a view makes every later product
    a strided read, 3-5x a contiguous one).  The transposed matrices are
    copied contiguous first — 16 k doubles, against a ``matmul`` that is
    1.4-2.4x slower on the strided view from 57 to 4,610 patterns
    (EXPERIMENTS.md, "Which batched overrides still pay") — except for a
    single pattern, where the layout picks BLAS's matrix-vector routine
    and with it the rounding."""
    if out is None:
        out = np.empty(clv.shape)
    pt = pmats.transpose(0, 2, 1)
    if clv.shape[0] > 1:
        pt = np.ascontiguousarray(pt)
    np.matmul(clv.transpose(1, 0, 2), pt, out=out.transpose(1, 0, 2))
    return out


def _propagate_tip(pmats: np.ndarray, clv: np.ndarray) -> np.ndarray:
    """``kab,mb->mka``: every category's ``P_k`` applied to a tip CLV
    ``(m, 4)`` — one ``(m, 4) @ (4, 4k)`` product, copied as above."""
    k = pmats.shape[0]
    pt = pmats.reshape(4 * k, 4).T
    if clv.shape[0] > 1:
        pt = np.ascontiguousarray(pt)
    return (clv @ pt).reshape(-1, k, 4)


def _propagate_cat(pmats: np.ndarray, clv: np.ndarray) -> np.ndarray:
    """``pab,pb->pa``: one gathered ``P`` per pattern (CAT).  A single
    per-pattern contraction with no BLAS form, so plain ``einsum`` — which
    is all the path-optimised call ever ran for it."""
    return np.einsum("pab,pb->pa", pmats, clv)


def _mask_table(pmats: np.ndarray, tip_rows: np.ndarray) -> np.ndarray:
    """``kab,sb->ksa``: the propagated CLV of each of the 16 IUPAC mask
    rows under every category, shape ``(k, 16, 4)``."""
    return tip_rows @ pmats.transpose(0, 2, 1)


def _site_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``mka,mka->m`` / ``pa,pa->p``: per-pattern dot product over every
    trailing axis — each pattern's flattened row times its column."""
    m = a.shape[0]
    return np.matmul(a.reshape(m, 1, -1), b.reshape(m, -1, 1)).reshape(m)


def _to_eigenbasis(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``mka,aj->mkj`` with ``basis = U``, ``mkb,jb->mkj`` with ``basis =
    U⁻¹ᵀ`` (contiguous: ``GTRModel`` holds ``U⁻¹`` in Fortran order): the
    state axis of a CLV times a 4x4 matrix, as one ``(m·k, 4) @ (4, 4)``
    product."""
    return (x.reshape(-1, 4) @ basis).reshape(x.shape)


def _sum_states(x: np.ndarray) -> np.ndarray:
    """``pa->p``: the 4 states of a CAT table ``(m, 4)`` added left to
    right — the order ``x.sum(axis=1)`` takes below 8 elements, hence its
    bits, as three whole-column adds instead of a reduction loop per row
    (88 -> 10 µs at 4,610 patterns)."""
    total = x[:, 0] + x[:, 1]
    total += x[:, 2]
    total += x[:, 3]
    return total


def _newton_rows(coef: np.ndarray, exps: np.ndarray, t: float) -> np.ndarray:
    """``mka,ka->m`` thrice: a Γ sumtable against ``e = exp(λt)``, ``e·λ``
    and ``e·λ²`` (``λ = exps``) as one ``(3, 4k) @ (4k, m)`` product whose
    rows are site, d1 and d2 (472 -> 37 µs at 4,610 patterns).  Up to k = 7
    no column rounds by how many patterns share the call; the row-major
    product does from k = 4 (EXPERIMENTS.md, "Newton as one product")."""
    lam = exps.reshape(-1)
    e = np.exp(lam * t)
    return np.array([e, e * lam, e * lam * lam]) @ coef.reshape(len(coef), -1).T


def _site_sum(clv: np.ndarray, pi_column: np.ndarray) -> np.ndarray:
    """``mka,a->m``: a Γ CLV against the frequencies tiled over the
    categories (``(4k, 1)``), one product per pattern like :func:`_site_dot`
    (97 -> 39 µs at 4,610 patterns against the plain ``einsum``)."""
    return np.matmul(clv.reshape(len(clv), 1, -1), pi_column).reshape(-1)


def _row_max(flat: np.ndarray) -> np.ndarray:
    """Per-row max of a 2-D array (exact under any order): neighbours of
    the flattened rows fold pairwise while the width is even, a fraction
    of the time of ``ufunc.reduce`` along a short axis."""
    n, w = flat.shape
    cur = flat.reshape(-1)
    while w % 2 == 0:
        w //= 2
        cur = np.fmax(cur[0::2], cur[1::2])
    return cur if w == 1 else np.fmax.reduce(cur.reshape(n, w), axis=1)


def _product_rescale(
    parts: list[np.ndarray], clv_out: np.ndarray, scale_out: np.ndarray
) -> None:
    """Product of ``parts`` in list order, written into ``clv_out``, then
    threshold scaling — the whole axis or one block of it: a pattern whose
    entries all lie below :data:`SCALE_MIN` is multiplied by exactly
    ``1 / SCALE_MIN`` and gets ``log(SCALE_MIN)`` in ``scale_out``, every
    other pattern 0.  One ``min`` settles the usual case, where no pattern
    scales; the row max is taken only when one does.  Each pattern's bits
    depend on its own operands only."""
    if len(parts) == 1:
        np.copyto(clv_out, parts[0])
    else:
        np.multiply(parts[0], parts[1], out=clv_out)
    for extra in parts[2:]:
        np.multiply(clv_out, extra, out=clv_out)
    scale_out.fill(0.0)
    flat = clv_out.reshape(len(clv_out), -1)
    if flat.min() >= SCALE_MIN:
        return
    low = _row_max(flat) < SCALE_MIN
    flat[low] *= 1.0 / SCALE_MIN
    scale_out[low] = math.log(SCALE_MIN)


def _sum_logscales(logscales: list[np.ndarray], scale: np.ndarray) -> np.ndarray:
    """``logscales`` summed in list order, then ``scale`` — which must be
    the caller's to give away."""
    if not logscales:
        return scale
    total = logscales[0].copy()
    for extra in logscales[1:]:
        total += extra
    total += scale
    return total


def clv_entries(n_taxa: int) -> int:
    """``CLVCache``'s entry bound on an ``n_taxa`` tree: the n − 2 inner
    partials a traversal touches in turn, plus one SPR trial's paths.  The
    contribution LRU (one array per child edge) holds twice as many."""
    return n_taxa + 32


class ArrayLRU:
    """A bounded LRU of read-only arrays (P-matrices, tip tables, child
    contributions); entries are frozen on insert because every hit hands
    out the same array."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._store: OrderedDict = OrderedDict()

    def get(
        self, key, build: Callable[[], np.ndarray] | None = None
    ) -> np.ndarray | None:
        """The entry for ``key`` (refreshed); on a miss, ``build()`` is
        stored and returned — or ``None`` without a builder."""
        value = self._store.get(key)
        if value is not None:
            self._store.move_to_end(key)
        elif build is not None:
            value = self.put(key, build())
        return value

    def put(self, key, value: np.ndarray) -> np.ndarray:
        value.setflags(write=False)
        self._store[key] = value
        if len(self._store) > self.capacity:
            self._store.popitem(last=False)
        return value


@dataclass
class OpCounter:
    """Counts likelihood-kernel work in *pattern operations*.

    One pattern-op is the computation of one pattern's CLV entry set at one
    node (times the number of rate categories).  The counter feeds both the
    virtual thread pool (fine-grained timing) and cross-checks of the
    analytic cost model.

    ``clv_updates`` counts CLV propagations, ``edge_evals`` across-edge
    likelihood evaluations, ``sumtables`` Newton coefficient-table builds,
    and ``deriv_evals`` (lnL, d1, d2) evaluations on a sumtable.  All four
    feed ``pattern_ops``.

    ``n`` batches a charge: a kernel that executes a whole traversal
    level as one tensor contraction charges ``n`` logical operations in
    one call, so op totals stay *exactly* equal to the per-node reference
    — batching is an execution detail, not less work.
    """

    pattern_ops: int = 0
    clv_updates: int = 0
    edge_evals: int = 0
    sumtables: int = 0
    deriv_evals: int = 0

    def charge_clv(self, n_patterns: int, n_cats: int, n: int = 1) -> None:
        self.pattern_ops += n * n_patterns * n_cats
        self.clv_updates += n

    def charge_edge(self, n_patterns: int, n_cats: int, n: int = 1) -> None:
        self.pattern_ops += n * n_patterns * n_cats
        self.edge_evals += n

    def charge_sumtable(self, n_patterns: int, n_cats: int, n: int = 1) -> None:
        self.pattern_ops += n * n_patterns * n_cats
        self.sumtables += n

    def charge_deriv(self, n_patterns: int, n_cats: int, n: int = 1) -> None:
        self.pattern_ops += n * n_patterns * n_cats
        self.deriv_evals += n

    def snapshot(self) -> dict[str, int]:
        return {
            "pattern_ops": self.pattern_ops,
            "clv_updates": self.clv_updates,
            "edge_evals": self.edge_evals,
            "sumtables": self.sumtables,
            "deriv_evals": self.deriv_evals,
        }


@dataclass
class Partial:
    """A CLV plus its per-pattern log-scaler."""

    clv: np.ndarray  # gamma: (m, k, 4) (tips: (m, 4)); cat: (m, 4)
    logscale: np.ndarray  # (m,)


class KernelBackend:
    """The likelihood kernel: every pattern-axis computation of the engine.

    The engine drives it through memoised transition matrices
    (:meth:`pmatrices`), whole traversal levels (:meth:`level_partials`
    down, :meth:`up_level_partials` up), and the per-edge kernels
    (:meth:`edge_site`, :meth:`insertion_site`, :meth:`sumtable`,
    :meth:`derivatives`).  A level's child contributions are one
    ``propagate`` per edge, multiplied and scaled per node
    (:meth:`combine`); what the kernel adds to that math is reuse and
    blocking, neither of which moves a bit:

    * :meth:`level_contribs` serves repeated subtrees from a
      **contribution LRU** keyed by ``(subtree signature, branch-length
      bits)`` — across the repeated up-partial sweeps of an SPR round most
      child edges are unchanged, so their propagated contributions are
      the same float64 arrays — and gathers tips from tip tables memoised
      by the bits of the branch length;
    * at :attr:`fuse_min_patterns` Γ patterns and above, the levels run a
      **fused block pipeline** (:meth:`_fused_node`): each node's child
      propagations, product and scaling run block by block over the
      pattern axis, so every intermediate stays L2-resident;
    * lazy-SPR insertion scoring transports the pruned subtree once per
      SPR step (:meth:`_insertion_transport`).

    Op accounting is *charge-neutral*: a contribution served from the LRU
    still charges a CLV update — reuse is a wall-clock optimisation, not
    less logical work.

    Subclasses (the test suites' tiling kernels) change execution only
    through :meth:`_sweep`, which decides how the pattern axis is cut;
    ``LikelihoodEngine(kernel_class=...)`` takes one.
    """

    #: LRU capacity for transition matrices (and the tip tables derived
    #: from them); entries are a few hundred bytes each.  The P-matrix
    #: LRU grows to four per taxon, so that the 2n − 3 lengths one
    #: traversal builds at once (:meth:`build_pmatrices`) fit.
    pmat_entries = 512
    #: Pattern-block length of the fused per-node pipeline: the
    #: propagated child blocks (2 · B·k·4 doubles ≈ 1 MiB at B=4096, k=4
    #: for two children), multiplied straight into the output's rows,
    #: stay cache-resident across the whole propagate→product→scale
    #: chain.  Profiled best at 4096 on the 19.4k-pattern up-sweep (~10%
    #: over 2048; 8192+ spills out of L2).
    fuse_block = 4096
    #: Run the fused pipeline only above this many patterns (Γ mode);
    #: smaller alignments fit in cache anyway, and there the contribution
    #: LRU saves more than the blocks would.
    fuse_min_patterns = 4096

    def __init__(
        self,
        model: GTRModel,
        rate_model: RateModel,
        ops: OpCounter,
        n_patterns: int,
        n_taxa: int,
    ) -> None:
        self.model = model
        self.rate_model = rate_model
        self.ops = ops
        self.n_patterns = n_patterns
        self.n_categories = rate_model.n_categories
        self.is_cat = rate_model.kind == "cat"
        #: CAT's category of each pattern (``None`` under Γ): a pattern-axis
        #: operand of the span primitives like any CLV.
        self._p2c = rate_model.pattern_to_cat
        self.tip_rows = TIP_ROWS
        self._pmat_lru = ArrayLRU(max(self.pmat_entries, 4 * n_taxa))
        self._tip_lru = ArrayLRU(self.pmat_entries)
        self._contrib_lru = ArrayLRU(2 * clv_entries(n_taxa))
        self._ins_memo: tuple | None = None
        self._buffers: dict[tuple, np.ndarray] = {}
        #: :func:`_site_sum`'s frequency column, π once per category
        #: (``np.concatenate``: ``np.tile`` costs more than twice as much).
        self._pi_column = np.concatenate([model.pi] * self.n_categories).reshape(-1, 1)

    @cached_property
    def _exps(self) -> np.ndarray:
        """The sumtable's exponents ``rate_c · λ_j``, shape (k, 4): fixed
        for the kernel's lifetime and handed out by every :meth:`sumtable`,
        hence read-only; built by the first one."""
        exps = np.outer(self.rate_model.rates, self.model._spectral[0])
        exps.setflags(write=False)
        return exps

    def pmatrices(self, t: float) -> np.ndarray:
        """P(t·r_c) for all categories, shape (k, 4, 4), memoised by the
        bits of ``t`` — Newton and SPR re-ask for the same lengths."""
        key = length_bits(t)
        pmats = self._pmat_lru.get(key)
        if pmats is None:
            pmats = self._pmat_lru.put(
                key, self.model.transition_matrices(t, self.rate_model.rates)
            )
        return pmats

    def build_pmatrices(self, lengths) -> None:
        """Build the P-matrices of every length in ``lengths`` the LRU
        lacks in one :meth:`GTRModel.transition_matrix_stack` call and
        store the slices: a traversal's worth costs one NumPy dispatch
        instead of one per edge, and every slice is the single build's
        bits."""
        lru = self._pmat_lru
        missing = {}
        for t in lengths:
            key = length_bits(t)
            if key not in missing and lru.get(key) is None:
                missing[key] = t
        if missing:
            stack = self.model.transition_matrix_stack(
                list(missing.values()), self.rate_model.rates
            )
            for key, pmats in zip(missing, stack):
                lru.put(key, pmats)

    def _tip_table(self, t: float) -> np.ndarray:
        """The propagated CLV of each of the 16 IUPAC masks for ``t``
        (RAxML's tip-case kernels: O(16·k) arithmetic instead of O(m·k)).

        Stored ``(16, k, 4)`` in Γ mode so the per-pattern gather
        ``table[masks]`` is one contiguous fancy index; CAT mode keeps the
        ``(k, 16, 4)`` layout of :func:`_mask_table`.
        """
        def build() -> np.ndarray:
            raw = _mask_table(self.pmatrices(t), self.tip_rows)
            if self.is_cat:
                return raw
            return np.ascontiguousarray(raw.transpose(1, 0, 2))

        return self._tip_lru.get(length_bits(t), build)

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

    # -- the pattern-axis sweep ------------------------------------------------

    def _sweep(self, span: Callable, *operands, **fixed):
        """Evaluate one span primitive over the pattern axis.

        ``operands`` (positional) are indexed by pattern on their first
        axis, or ``None``; ``fixed`` (keyword) operands are not.  Here the
        span is the whole axis: one call.  This is the only place the axis
        may be cut — an override calls ``span`` on matching slices of every
        operand and concatenates what it returns (arrays, or tuples of
        arrays and ``None``), which cannot change a bit because every
        per-pattern value depends on that pattern's operands only.
        """
        return span(*operands, **fixed)

    # -- span primitives -------------------------------------------------------

    def _propagate_span(
        self, clv: np.ndarray, p2c: np.ndarray | None, pmats: np.ndarray
    ) -> np.ndarray:
        """Apply per-category transition matrices to one span of a CLV."""
        if self.is_cat:
            return _propagate_cat(pmats[p2c], clv)
        if clv.ndim == 2:  # tip: broadcast over categories
            return _propagate_tip(pmats, clv)
        return _propagate_inner(pmats, clv)

    def _tip_rows_span(
        self, masks: np.ndarray, p2c: np.ndarray | None, table: np.ndarray
    ) -> np.ndarray:
        """One span of tip contributions: rows of :meth:`_tip_table`."""
        return table[p2c, masks] if self.is_cat else table[masks]

    def _root_site_span(self, clv: np.ndarray) -> np.ndarray:
        if self.is_cat:
            return clv @ self.model.pi
        return _site_sum(clv, self._pi_column) / self.n_categories

    def _edge_site_span(
        self,
        uclv: np.ndarray,
        dclv: np.ndarray,
        p2c: np.ndarray | None,
        pmats: np.ndarray,
    ) -> np.ndarray:
        moved = self._propagate_span(dclv, p2c, pmats)
        pi = self.model.pi
        site = _site_dot(uclv * pi, moved)
        return site if self.is_cat else site / self.n_categories

    def _insertion_span(
        self,
        dclv: np.ndarray,
        uclv: np.ndarray,
        moved_sub: np.ndarray,
        p2c: np.ndarray | None,
        pmats: np.ndarray,
    ) -> np.ndarray:
        """Both halves of the split edge propagated to the insertion node
        and multiplied, in this order, with the transported subtree."""
        acc = self._propagate_span(dclv, p2c, pmats)
        np.multiply(acc, self._propagate_span(uclv, p2c, pmats), out=acc)
        np.multiply(acc, moved_sub, out=acc)
        return self._root_site_span(acc)

    def _sumtable_span(
        self, uclv: np.ndarray, dclv: np.ndarray, p2c: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One span of RAxML's sumtable; returns ``(coef, exps_or_None)``
        (the exponent table is pattern-dependent only in CAT mode)."""
        u, u_inv = self.model._spectral[1:3]
        x = _to_eigenbasis(uclv * self.model.pi, u)
        y = _to_eigenbasis(dclv, u_inv.T)
        if self.is_cat:
            return x * y, self._exps[p2c]
        return x * y / self.n_categories, None

    def _derivatives_span(
        self, coef: np.ndarray, exps: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern (site, d1, d2) at ``t`` for one span of the
        sumtable; ``exps`` is per pattern under CAT and the one ``(k, 4)``
        table under Γ.  CAT's in-place products evaluate ``(term·exps)·exps``."""
        if not self.is_cat:
            return tuple(_newton_rows(coef, exps, t))
        term = coef * np.exp(exps * t)
        site = _sum_states(term)
        np.multiply(term, exps, out=term)
        d1 = _sum_states(term)
        np.multiply(term, exps, out=term)
        return site, d1, _sum_states(term)

    # -- public kernels (full-pattern arrays; charge once per invocation) ----

    def propagate(self, pmats: np.ndarray, clv: np.ndarray) -> np.ndarray:
        """Parent-side contribution of a child CLV across its edge."""
        self.ops.charge_clv(self.n_patterns, self.n_categories)
        return self._sweep(self._propagate_span, clv, self._p2c, pmats=pmats)

    # -- traversal levels ------------------------------------------------------

    def level_contribs(self, specs: list[LevelSpec]) -> list[np.ndarray]:
        """Propagated child contributions for one traversal level, one
        per child edge spec.

        Repeats are served from the contribution LRU; the rest are
        propagations, tips as rows of :meth:`_tip_table`.  Charges one CLV
        update per spec *regardless of cache hits*.
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

    def combine(
        self, contribs: list[np.ndarray], logscales: list[np.ndarray]
    ) -> Partial:
        """Product of contributions in list order under threshold
        scaling (:func:`_product_rescale`), its scalings added onto the
        sum of ``logscales`` (tip children contribute exact zeros and
        are omitted)."""
        clv = np.empty(contribs[0].shape)
        scale = np.empty(len(clv))
        _product_rescale(contribs, clv, scale)
        return Partial(clv, _sum_logscales(logscales, scale))

    def _contribs_by_node(
        self, spec_lists: list[list[LevelSpec]]
    ) -> list[list[np.ndarray]]:
        """One :meth:`level_contribs` batch for a whole level, regrouped
        per node."""
        flat = iter(self.level_contribs([s for specs in spec_lists for s in specs]))
        return [[next(flat) for _ in specs] for specs in spec_lists]

    @property
    def _fused(self) -> bool:
        """Large Γ alignments run the fused block pipeline; small ones
        (and CAT mode) the per-level flow over :meth:`level_contribs` and
        :meth:`combine`."""
        return not self.is_cat and self.n_patterns >= self.fuse_min_patterns

    def level_partials(
        self, nodes: list[tuple[list[LevelSpec], list[np.ndarray | None]]]
    ) -> list[Partial]:
        """Down partials for every pending inner node of one level.

        Each entry is one node's child edge specs and the children's down
        log-scalers (``None`` for leaves), both in child order.  Charges
        one CLV update per child edge.  In the fused regime each node runs
        :meth:`_fused_node`, which neither reads nor fills the
        contribution LRU: materialising its propagations would re-spend
        the memory traffic the fusion exists to avoid.
        """
        if self._fused:
            parts = [self._fused_node(specs, lss)[0] for specs, lss in nodes]
            self.ops.charge_clv(
                self.n_patterns, self.n_categories,
                n=sum(len(specs) for specs, _ in nodes),
            )
            return parts
        contribs = self._contribs_by_node([specs for specs, _ in nodes])
        return [
            self.combine(cs, [ls for ls in lss if ls is not None])
            for cs, (_, lss) in zip(contribs, nodes)
        ]

    def up_level_partials(
        self,
        nodes: list[
            tuple[
                tuple[float, np.ndarray, np.ndarray] | None,
                list[LevelSpec],
                list[np.ndarray | None],
            ]
        ],
    ) -> list[list[Partial]]:
        """Up partials for every internal node of one preorder level.

        Each entry is the parent-side partial to transport across the
        node's own edge (``(t, clv, logscale)``, ``None`` at the root)
        plus what :meth:`level_partials` takes.  Returns one partial per
        child per node — the rest of the tree at the node, seen from that
        child: the siblings' contributions in child order, the
        transported partial last.  Charges one CLV update per child edge
        plus one per transported partial.  In the fused regime a node
        transports the parent-side partial and every child's down CLV
        once per pattern block and forms *all* children's products from
        those resident blocks.
        """
        if self._fused:
            out = [
                self._fused_node(specs, lss, above, leave_one_out=True)
                for above, specs, lss in nodes
            ]
            self.ops.charge_clv(
                self.n_patterns, self.n_categories,
                n=sum(len(specs) + (above is not None) for above, specs, _ in nodes),
            )
            return out
        moved = [
            None if above is None
            else self.propagate(self.pmatrices(above[0]), above[1])
            for above, _, _ in nodes
        ]
        contribs = self._contribs_by_node([specs for _, specs, _ in nodes])
        out = []
        for (above, specs, lss), mv, cs in zip(nodes, moved, contribs):
            if above is not None:
                cs, lss = cs + [mv], lss + [above[2]]
            out.append([
                self.combine(
                    [c for j, c in enumerate(cs) if j != i],
                    [ls for j, ls in enumerate(lss) if j != i and ls is not None],
                )
                for i in range(len(specs))
            ])
        return out

    def _fused_node(
        self,
        specs: list[LevelSpec],
        logscales: list[np.ndarray | None],
        above: tuple[float, np.ndarray, np.ndarray] | None = None,
        leave_one_out: bool = False,
    ) -> list[Partial]:
        """One node's partials via the fused block pipeline (Γ).

        The inputs are the child edges plus, last, the parent-side
        partial to transport (``above``).  A down partial is one output
        over all inputs; an up node (``leave_one_out``) has one output
        per child, over every input but that child.

        Bit-identity with the per-level flow: an edge block is
        ``_propagate_inner`` on a pattern slice, a tip block one gather
        from the tip table, and product and scaling are ``combine``'s own
        :func:`_product_rescale` on a block, which decides each pattern's
        scaling from that pattern alone.  Blocking the pattern axis is
        invisible to all three.
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
        _, t, payload = spec
        if payload.ndim == 1:
            return "tip", self._tip_table(t).reshape(16, -1), payload
        return "edge", self.pmatrices(t), payload

    def _input_blocks(
        self, inputs: list[FusedInput], lo: int, hi: int
    ) -> list[np.ndarray]:
        """Patterns ``lo:hi`` of every fused-pipeline input, in input
        order, each ``(n, k, 4)``: tip gathers and edge propagations into
        scratch."""
        k = self.n_categories
        n = hi - lo
        blks: list[np.ndarray] = []
        for i, (kind, table, payload) in enumerate(inputs):
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

    # -- per-edge kernels -----------------------------------------------------

    def root_site(self, clv: np.ndarray) -> np.ndarray:
        """Per-pattern site likelihoods of a root CLV (uncharged: the
        engine charges the enclosing reduction, as RAxML's evaluate job)."""
        return self._sweep(self._root_site_span, clv)

    def edge_site(
        self, uclv: np.ndarray, pmats: np.ndarray, dclv: np.ndarray
    ) -> np.ndarray:
        """Per-pattern site likelihoods across one edge."""
        self.ops.charge_edge(self.n_patterns, self.n_categories)
        return self._sweep(self._edge_site_span, uclv, dclv, self._p2c, pmats=pmats)

    def insertion_site(
        self,
        dclv: np.ndarray,
        uclv: np.ndarray,
        sclv: np.ndarray,
        pmats_half: np.ndarray,
        pmats_sub: np.ndarray,
    ) -> np.ndarray:
        """Lazy-SPR per-pattern site likelihoods: both edge halves and the
        pruned subtree propagated to the virtual insertion node.

        Charged as two CLV updates plus one edge evaluation (the subtree
        transport rides inside the edge job), matching RAxML's lazy-SPR
        kernel structure.
        """
        moved_sub = self._insertion_transport(sclv, pmats_sub)
        self.ops.charge_clv(self.n_patterns, self.n_categories, n=2)
        self.ops.charge_edge(self.n_patterns, self.n_categories)
        return self._sweep(
            self._insertion_span, dclv, uclv, moved_sub, self._p2c, pmats=pmats_half
        )

    def _insertion_transport(
        self, sclv: np.ndarray, pmats_sub: np.ndarray
    ) -> np.ndarray:
        """The pruned subtree's CLV moved across its attachment branch
        (uncharged: it rides inside :meth:`insertion_site`'s edge job).
        ``P(t_sub)·sclv`` is identical for every candidate edge of one SPR
        step, so it is computed once per ``(sclv, pmats_sub)`` pair and
        reused while the engine scans candidates."""
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
        moved = self._sweep(self._propagate_span, sclv, self._p2c, pmats=pmats_sub)
        self._ins_memo = (key, (sclv, pmats_sub), moved)
        return moved

    def sumtable(
        self, uclv: np.ndarray, dclv: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Eigenbasis coefficient table for one edge (RAxML's sumtable).

        Returns ``(coef, exps)``; see
        :meth:`repro.likelihood.engine.LikelihoodEngine.edge_coefficients`.
        """
        coef, exps = self._sweep(self._sumtable_span, uclv, dclv, self._p2c)
        self.ops.charge_sumtable(self.n_patterns, self.n_categories)
        return coef, self._exps if exps is None else exps

    def derivatives(
        self, coef: np.ndarray, exps: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern (site, dsite/dt, d²site/dt²) of the edge function."""
        self.ops.charge_deriv(self.n_patterns, self.n_categories)
        if self.is_cat:  # one exponent row per pattern: an operand of the sweep
            return self._sweep(self._derivatives_span, coef, exps, t=t)
        return self._sweep(self._derivatives_span, coef, exps=exps, t=t)

"""The likelihood kernel of the engine.

:class:`KernelBackend` owns every pattern-axis computation the engine
issues: every down and up partial, through one node routine (inputs
propagated across their branches, multiplied and scaled), per-edge site
likelihoods, lazy-SPR insertion scores, the Newton sumtable, and the
derivative evaluations.  Every partial has the kernel's ``clv_shape``
over m patterns or, compact, over one row per class with each pattern's
class in its index: a tip (its 16 mask rows, as RAxML's tip cases look
each pattern's state up in a 16-row table) and a site-repeat node.  A
compact partial's rows are moved across a branch once and gathered by
its index.  The engine decides *what* to compute (traversal
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

Scratch.  As RAxML allocates its likelihood vectors and Newton
``sumBuffer`` once, each kernel owns scratch slots, grown on demand
(:meth:`KernelBackend._slot`), that its transients are written into with
``out=``: fused blocks, the per-edge kernels' gathered and propagated
operands, ``uclv·π`` and its eigenbasis rows, CAT's per-pattern ``P``
and Newton exponentials.  The rule: scratch holds only what a call
consumes before it returns; every array returned or stored is fresh
(partials, contribution-LRU entries, the insertion memo, ``coef``, site
arrays).  Scratch reaches a span primitive as a positional operand of
``_sweep``, so a tiling kernel slices it like any pattern-axis operand.
Per-kernel constants broadcast over the patterns (π at ``clv_shape``,
CAT's per-pattern exponents) are built once, read-only.

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
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from repro.likelihood.gtr import GTRModel
from repro.likelihood.rates import RateModel

#: Smallest site likelihood the engine takes a log of (guards log(0) for
#: impossible patterns).
_TINY = 1e-300
#: RAxML's ``minlikelihood``: a pattern whose CLV entries all lie below it
#: is scaled by ``1 / SCALE_MIN`` (see :func:`_product_rescale`).
SCALE_MIN = 2.0**-256

_pack_f64 = struct.Struct("<d").pack
_unpack_u64 = struct.Struct("<Q").unpack

#: One input of a node: ``(subtree signature, branch length, payload)``
#: where the payload is a partial's :attr:`Partial.operand` — a CLV, or a
#: compact ``(class rows, index)`` — to transport across the branch.  The
#: signature keys the contribution LRU; ``None`` (an up node's parent-side
#: partial, a site-repeat node's gathered rows) bypasses it.
LevelSpec = tuple[int | None, float, "np.ndarray | tuple[np.ndarray, np.ndarray]"]


def length_bits(t: float) -> int:
    """The exact float64 bit pattern of a branch length — two lengths that
    differ in the last ulp produce different CLVs, so this is the key of
    both the planner's subtree signatures and the kernels' memos."""
    return _unpack_u64(_pack_f64(t))[0]


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
    """``kab,mkb->mka``: per-category ``P_k`` applied to a CLV ``(m, k,
    4)`` — an inner node's, or a tip's 16 mask rows broadcast over the
    categories — one ``(m, 4) @ (4, 4)`` product per category, each
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


def _propagate_cat(pmats: np.ndarray, clv: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``pab,pb->pa``: one gathered ``P`` per pattern (CAT).  A single
    per-pattern contraction with no BLAS form, so plain ``einsum`` — which
    is all the path-optimised call ever ran for it."""
    return np.einsum("pab,pb->pa", pmats, clv, out=out)


def _site_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``mka,mka->m`` / ``pa,pa->p``: per-pattern dot product over every
    trailing axis — each pattern's flattened row times its column."""
    m = a.shape[0]
    return np.matmul(a.reshape(m, 1, -1), b.reshape(m, -1, 1)).reshape(m)


def _to_eigenbasis(x: np.ndarray, basis: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``mka,aj->mkj`` with ``basis = U``, ``mkb,jb->mkj`` with ``basis =
    U⁻¹ᵀ`` (contiguous: ``GTRModel`` holds ``U⁻¹`` in Fortran order): the
    state axis of a CLV times a 4x4 matrix, as one ``(m·k, 4) @ (4, 4)``
    product, into ``out`` (contiguous) when given."""
    flat = None if out is None else out.reshape(-1, 4)
    return np.matmul(x.reshape(-1, 4), basis, out=flat).reshape(x.shape)


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


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: a per-kernel constant every caller shares."""
    a.setflags(write=False)
    return a


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
    if clv_out.min() >= SCALE_MIN:
        return
    flat = clv_out.reshape(len(clv_out), -1)
    low = _row_max(flat) < SCALE_MIN
    flat[low] *= 1.0 / SCALE_MIN
    scale_out[low] = math.log(SCALE_MIN)


def _sum_logscales(
    logscales: list[np.ndarray | None], scale: np.ndarray, skip: int | None = None
) -> np.ndarray:
    """``logscales`` but index ``skip`` summed in list order, then ``scale``
    — which must be the caller's to give away; ``None`` stands for exact
    zeros and is left out."""
    total = None
    for j, ls in enumerate(logscales):
        if ls is None or j == skip:
            continue
        if total is None:
            total = ls.copy()
        else:
            total += ls
    if total is None:
        return scale
    total += scale
    return total


@lru_cache(maxsize=64)
def _spans(m: int, block: int) -> tuple[tuple[int, int], ...]:
    """``(lo, hi)`` blocks of ``block`` rows over ``m`` rows.  A one-row
    last block would take BLAS's matrix-vector routines, which round
    differently: it joins the block before it."""
    cuts = [0, *range(block, m - 1, block), m]
    return tuple(zip(cuts, cuts[1:]))


def clv_entries(n_taxa: int) -> int:
    """``CLVCache``'s entry bound on an ``n_taxa`` tree: the n − 2 inner
    partials a traversal touches in turn, plus one SPR trial's paths.  The
    contribution LRU (one array per child edge) holds twice as many."""
    return n_taxa + 32


class ArrayLRU:
    """A bounded LRU of read-only arrays (P-matrices, child
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


@dataclass(slots=True)
class Partial:
    """A CLV plus its per-pattern log-scaler; a *compact* partial — a
    tip's, a site-repeat node's — holds one CLV row per class and each
    pattern's class row in ``index`` (read through
    :meth:`KernelBackend._gathered`)."""

    clv: np.ndarray  # KernelBackend.clv_shape: gamma (m, k, 4), cat (m, 4); compact: u rows
    logscale: np.ndarray  # (m,)
    index: np.ndarray | None = None  # compact: each pattern's row of clv

    @property
    def operand(self) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """What a kernel reads: the CLV, or a compact ``(clv, index)``."""
        return self.clv if self.index is None else (self.clv, self.index)


class KernelBackend:
    """The likelihood kernel: every pattern-axis computation of the engine.

    The engine drives it through memoised transition matrices
    (:meth:`pmatrices`), whole traversal levels (:meth:`level_partials`
    down, :meth:`up_level_partials` up, :meth:`repeat_partial` for a
    site-repeat node), and the per-edge kernels (:meth:`edge_site`,
    :meth:`insertion_site`, :meth:`sumtable`, :meth:`derivatives`).

    Every down and up partial comes from one routine, :meth:`_node`
    (RAxML's ``newview``): a node's inputs — its child edges, plus the
    parent-side partial for an up node — each propagated across its
    branch, multiplied in input order and scaled.  A down node has one
    output over all inputs, an up node one per child over every input
    but that child.  What the kernel adds to that math is reuse and
    blocking, neither of which moves a bit; the regime, fixed per kernel,
    only decides how an input's rows are read (:meth:`_rows`, :meth:`_block`):

    * below :attr:`fuse_min_patterns` patterns, and under CAT, whole-axis
      contributions from a **contribution LRU** keyed by ``(subtree
      signature, branch-length bits)`` — across the repeated up-partial
      sweeps of an SPR round most child edges are unchanged, so their
      propagated contributions are the same float64 arrays;
    * from :attr:`fuse_min_patterns` Γ patterns on, **blocks** of
      :attr:`fuse_block` patterns computed into scratch, so every
      intermediate of a node stays L2-resident;
    * a **compact** partial (:attr:`Partial.index` set: a tip, a
      site-repeat node) is read through :meth:`_gathered`: its u class
      rows move across the branch once, then each pattern (or block)
      gathers its class's row;
    * lazy-SPR insertion scoring transports the pruned subtree once per
      SPR step (:meth:`_insertion_transport`).

    Op accounting is *charge-neutral*: a contribution served from the LRU
    still charges a CLV update — reuse is a wall-clock optimisation, not
    less logical work.

    Subclasses (the test suites' tiling kernels) change execution only
    through :meth:`_sweep`, which decides how the pattern axis is cut;
    ``LikelihoodEngine(kernel_class=...)`` takes one.
    """

    #: LRU capacity for transition matrices; entries are a few hundred
    #: bytes each.  The P-matrix LRU grows to four per taxon, so that the
    #: 2n − 3 lengths one traversal builds at once (:meth:`build_pmatrices`)
    #: fit.
    pmat_entries = 512
    #: Pattern-block length of :meth:`_node` in the fused regime: the
    #: propagated child blocks (2 · B·k·4 doubles ≈ 1 MiB at B=4096, k=4
    #: for two children), multiplied straight into the output's rows,
    #: stay cache-resident across the whole propagate→product→scale
    #: chain.  Profiled best at 4096 on the 19.4k-pattern up-sweep (~10%
    #: over 2048; 8192+ spills out of L2).
    fuse_block = 4096
    #: Read node inputs in blocks from this many patterns on (Γ mode);
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
        self._pmat_lru = ArrayLRU(max(self.pmat_entries, 4 * n_taxa))
        self._contrib_lru = ArrayLRU(2 * clv_entries(n_taxa))
        self._ins_memo: tuple | None = None
        #: Every partial's shape; a compact one's: u rows.
        self.clv_shape = (
            (n_patterns, 4) if self.is_cat else (n_patterns, self.n_categories, 4)
        )
        #: The regime of :meth:`_node`: blocks from ``fuse_min_patterns``
        #: Γ rows on, into one scratch slot per input, else whole rows
        #: through the contribution LRU.
        self._fused = not self.is_cat and n_patterns >= self.fuse_min_patterns
        self._slots: dict[int, np.ndarray] = {}
        #: :func:`_site_sum`'s frequency column, π once per category
        #: (``np.concatenate``: ``np.tile`` costs more than twice as much).
        self._pi_column = np.concatenate([model.pi] * self.n_categories).reshape(-1, 1)

    @cached_property
    def _exps(self) -> np.ndarray:
        """The sumtable's exponents ``rate_c · λ_j``, shape (k, 4): fixed
        for the kernel's lifetime and handed out by every :meth:`sumtable`,
        hence read-only; built by the first one."""
        return _frozen(np.outer(self.rate_model.rates, self.model._spectral[0]))

    @cached_property
    def _pattern_exps(self) -> np.ndarray:
        """CAT's exponent row of every pattern, ``_exps[p2c]``: what every
        CAT :meth:`sumtable` returns."""
        return _frozen(self._exps[self._p2c])

    @cached_property
    def _pi_full(self) -> np.ndarray:
        """π at every entry of ``clv_shape``: ``uclv·π`` as a same-shape
        product, the broadcast's bits at a third of its cost."""
        return _frozen(np.ascontiguousarray(np.broadcast_to(self.model.pi, self.clv_shape)))

    def _slot(self, i: int, shape: tuple[int, ...]) -> np.ndarray:
        """Scratch slot ``i`` (a call's i-th transient; a fused node's input
        i) as a contiguous array of ``shape``, valid until its next use."""
        size = math.prod(shape)
        buf = self._slots.get(i)
        if buf is None or len(buf) < size:
            buf = self._slots[i] = np.empty(size)
        return buf[:size].reshape(shape)

    def _pgather(self, n: int) -> np.ndarray | None:
        """CAT's slot for ``n`` patterns' gathered ``P`` (Γ: ``None``)."""
        return self._slot(2, (n, 4, 4)) if self.is_cat else None

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

    def _propagate_span(self, clv, p2c, pgather, out, pmats: np.ndarray) -> np.ndarray:
        """Apply per-category transition matrices to one span of a CLV,
        into ``out`` (``None``: fresh); CAT first gathers each pattern's
        ``P`` into ``pgather`` ("clip": see :meth:`_block`)."""
        if self.is_cat:
            pmats = np.take(pmats, p2c, axis=0, out=pgather, mode="clip")
            return _propagate_cat(pmats, clv, out)
        return _propagate_inner(pmats, clv, out)

    def _moved(self, clv: np.ndarray, p2c: np.ndarray | None, pmats: np.ndarray) -> np.ndarray:
        """``clv`` moved across the branch of ``pmats`` by one sweep, fresh."""
        pgather = self._pgather(len(clv))
        return self._sweep(self._propagate_span, clv, p2c, pgather, None, pmats=pmats)

    def _root_site_span(self, clv: np.ndarray) -> np.ndarray:
        if self.is_cat:
            return clv @ self.model.pi
        return _site_sum(clv, self._pi_column) / self.n_categories

    def _edge_site_span(self, acc, dclv, uclv, pi, upi, p2c, pgather, pmats) -> np.ndarray:
        """``dclv`` propagated into ``acc`` (``None``: ``acc`` holds it
        moved already) against ``uclv·π``, written into ``upi``."""
        if dclv is not None:
            self._propagate_span(dclv, p2c, pgather, acc, pmats)
        site = _site_dot(np.multiply(uclv, pi, out=upi), acc)
        return site if self.is_cat else site / self.n_categories

    def _insertion_span(self, acc, dclv, uclv, moved_sub, p2c, pgather, moved_u, pmats):
        """Both halves of the split edge propagated to the insertion node
        — ``dclv`` into ``acc`` (``None``: ``acc`` holds it moved
        already), ``uclv`` into ``moved_u`` — and multiplied, in this
        order, with the transported subtree, in ``acc``."""
        if dclv is not None:
            self._propagate_span(dclv, p2c, pgather, acc, pmats)
        np.multiply(acc, self._propagate_span(uclv, p2c, pgather, moved_u, pmats), out=acc)
        np.multiply(acc, moved_sub, out=acc)
        return self._root_site_span(acc)

    def _sumtable_span(self, uclv, dclv, pi, upi, x) -> np.ndarray:
        """One span of RAxML's sumtable, ``coef`` (fresh, computed in place);
        ``uclv·π`` and its eigenbasis rows go to the scratch ``upi``, ``x``."""
        u, u_inv = self.model._spectral[1:3]
        x = _to_eigenbasis(np.multiply(uclv, pi, out=upi), u, x)
        coef = _to_eigenbasis(dclv, u_inv.T)
        np.multiply(x, coef, out=coef)
        if not self.is_cat:
            coef /= self.n_categories
        return coef

    def _derivatives_span(
        self, coef: np.ndarray, exps: np.ndarray, term: np.ndarray | None = None, t: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern (site, d1, d2) at ``t`` for one span of the sumtable;
        ``exps`` is the one ``(k, 4)`` table under Γ and per pattern under
        CAT, which evaluates ``coef·exp(exps·t)``, then ``(term·exps)·exps``,
        in its scratch ``term``."""
        if not self.is_cat:
            return tuple(_newton_rows(coef, exps, t))
        np.exp(np.multiply(exps, t, out=term), out=term)
        np.multiply(coef, term, out=term)
        site = _sum_states(term)
        np.multiply(term, exps, out=term)
        d1 = _sum_states(term)
        np.multiply(term, exps, out=term)
        return site, d1, _sum_states(term)

    # -- public kernels (full-pattern arrays; charge once per invocation) ----

    def propagate(self, pmats: np.ndarray, clv: np.ndarray) -> np.ndarray:
        """Parent-side contribution of a child CLV across its edge."""
        self.ops.charge_clv(self.n_patterns, self.n_categories)
        return self._moved(clv, self._p2c, pmats)

    # -- the node routine ------------------------------------------------------

    def level_partials(
        self, nodes: list[tuple[list[LevelSpec], list[np.ndarray | None]]]
    ) -> list[Partial]:
        """Down partials for every pending inner node of one level.

        Each entry is one node's child edge specs and the children's down
        log-scalers (``None`` for leaves), both in child order.  Charges
        one CLV update per child edge; each node is one :meth:`_node`.
        """
        m = self.n_patterns
        self.ops.charge_clv(m, self.n_categories, n=sum(len(specs) for specs, _ in nodes))
        return [self._node(m, specs, lss, self._p2c)[0] for specs, lss in nodes]

    def up_level_partials(
        self, nodes: list[tuple[list[LevelSpec], list[np.ndarray | None], int]]
    ) -> list[list[Partial]]:
        """Up partials for every internal node of one preorder level.

        Each entry is one node's inputs and their log-scalers, as
        :meth:`level_partials` takes them, plus its child count ``c``: the
        first ``c`` inputs are the child edges; below the root the last is
        the parent-side partial to transport across the node's own edge,
        ``(None, t, clv)``.  Returns one partial per child per node — the
        rest of the tree at the node, seen from that child: the other
        inputs' product in input order.  Charges one CLV update per input.
        """
        m = self.n_patterns
        self.ops.charge_clv(m, self.n_categories, n=sum(len(specs) for specs, _, _ in nodes))
        return [self._node(m, specs, lss, self._p2c, c) for specs, lss, c in nodes]

    def repeat_partial(
        self,
        specs: list[LevelSpec],
        logscales: list[np.ndarray | None],
        index: np.ndarray,
        reps: np.ndarray,
    ) -> Partial:
        """One node's down partial under site repeats, compact: the node as
        :meth:`level_partials` takes it, computed by :meth:`_node` on the
        rows ``reps`` (one per class of patterns whose operands agree; a
        compact child's through its index) and kept as those rows with
        ``index`` (each pattern's class).  The log-scaler is expanded by
        one ``np.take``, none for exact zeros (:attr:`zero_logscale`).
        Every pattern reads its class representative's bits, which are its
        own; ``reps`` must hold two rows or more (one row takes BLAS's
        matrix-vector routines).  Charged as the full node."""
        part = self._node(
            len(reps),
            [(None, t, p[0].take(p[1].take(reps), axis=0) if isinstance(p, tuple)
              else p.take(reps, axis=0)) for _, t, p in specs],
            [None if ls is None else ls.take(reps) for ls in logscales],
            None if self._p2c is None else self._p2c.take(reps),
        )[0]
        m = self.n_patterns
        self.ops.charge_clv(m, self.n_categories, n=len(specs))
        if not part.logscale.any():
            return Partial(part.clv, self.zero_logscale, index)
        return Partial(part.clv, np.take(part.logscale, index, out=np.empty(m), mode="clip"), index)

    @cached_property
    def zero_logscale(self) -> np.ndarray:
        """The log-scaler of exact zeros (read-only) that unscaled repeat
        partials share."""
        return _frozen(np.zeros(self.n_patterns))

    def _node(
        self,
        m: int,
        inputs: list[LevelSpec],
        logscales: list[np.ndarray | None],
        p2c: np.ndarray | None,
        children: int = 0,
    ) -> list[Partial]:
        """One node's ``m`` rows of partials from its inputs (``newview``).

        ``inputs`` are multiplied in list order, ``logscales`` are theirs
        (``None``: exact zeros) and ``p2c`` their patterns' CAT
        categories.  A down node (``children`` 0) has one output over all
        inputs; an up node one per child ``i < children``, over every
        input but ``i``.  The rows are all of them (:meth:`_rows`) or, in
        the fused regime from ``fuse_min_patterns`` rows on, blocks
        (:meth:`_block`); each output is :func:`_product_rescale` on them,
        which decides each pattern from its own operands: blocking moves
        no bit.
        """
        skips = range(children) if children else (None,)
        outs = [(np.empty((m, *self.clv_shape[1:])), np.empty(m)) for _ in skips]
        # The threshold holds for the rows the node is computed on: a site-
        # repeat node's class rows fit in cache where the axis does not.
        if self._fused and m >= self.fuse_min_patterns:
            sources = self._sources(inputs)
            spans = _spans(m, self.fuse_block)
            reads = ((lo, hi, self._block(sources, lo, hi)) for lo, hi in spans)
        else:
            reads = ((0, m, self._rows(inputs, p2c)),)
        for lo, hi, rows in reads:
            for i, (clv, scale) in zip(skips, outs):
                parts = rows if i is None else rows[:i] + rows[i + 1 :]
                _product_rescale(parts, clv[lo:hi], scale[lo:hi])
        return [
            Partial(clv, _sum_logscales(logscales, scale, i))
            for i, (clv, scale) in zip(skips, outs)
        ]

    def _rows(self, inputs: list[LevelSpec], p2c: np.ndarray | None) -> list[np.ndarray]:
        """Every :meth:`_node` input's whole contribution, in input order,
        served from the contribution LRU when it has a signature."""
        lru = self._contrib_lru
        return [
            self._contrib(t, payload, p2c) if sig is None
            else lru.get((sig, length_bits(t)), lambda: self._contrib(t, payload, p2c))
            for sig, t, payload in inputs
        ]

    def _contrib(self, t: float, payload, p2c: np.ndarray | None) -> np.ndarray:
        """A whole-axis contribution; a compact partial's through
        :meth:`_gathered`."""
        if isinstance(payload, tuple):
            return self._gathered(payload, self.pmatrices(t))
        return self._moved(payload, p2c, self.pmatrices(t))

    def _sources(self, inputs: list[LevelSpec]) -> list[tuple[np.ndarray, np.ndarray]]:
        """What :meth:`_block` reads each input from, once per node: a
        compact partial's ``(moved class rows, index)`` to gather, a
        CLV's ``(P, clv)`` to propagate."""
        out = []
        for _, t, payload in inputs:
            if isinstance(payload, tuple):
                rows, index = payload
                moved = self._class_moved(rows, index, self.pmatrices(t))
                out.append((moved.reshape(len(rows), -1), index))
            else:
                out.append((self.pmatrices(t), payload))
        return out

    def _block(
        self, sources: list[tuple[np.ndarray, np.ndarray]], lo: int, hi: int
    ) -> list[np.ndarray]:
        """Rows ``lo:hi`` of every input, each gathered or propagated into
        its own scratch slot.  The contribution LRU is neither read nor
        filled: materialising whole contributions would re-spend the memory
        traffic the blocks exist to avoid."""
        n = hi - lo
        out = []
        for j, (table, payload) in enumerate(sources):
            buf = self._slot(j, (n, self.n_categories, 4))
            if payload.ndim == 1:
                # Indexes are in range; "clip" lets take write into
                # ``out``, "raise" buffers.
                np.take(table, payload[lo:hi], axis=0, out=buf.reshape(n, -1), mode="clip")
            else:
                _propagate_inner(table, payload[lo:hi], out=buf)
            out.append(buf)
        return out

    def _class_moved(self, rows: np.ndarray, index: np.ndarray, pmats: np.ndarray) -> np.ndarray:
        """A compact partial's class rows moved across a branch; under CAT
        each row by its class's category (one category per class)."""
        cats = None
        if self.is_cat:
            cats = np.empty(len(rows), self._p2c.dtype)
            cats[index] = self._p2c
        return self._moved(rows, cats, pmats)

    def _gathered(self, operand: tuple, pmats: np.ndarray | None, out=None) -> np.ndarray:
        """A compact partial ``(class rows, index)`` at every pattern, into
        ``out`` (``None``: fresh): the class rows moved across the branch
        of ``pmats`` (``None``: as they are), then gathered by ``index``."""
        rows, index = operand
        if pmats is not None:
            rows = self._class_moved(rows, index, pmats)
        return rows.take(index, axis=0, out=out, mode="clip")

    # -- per-edge kernels -----------------------------------------------------

    def _moved_into_scratch(self, dclv, pmats: np.ndarray) -> tuple:
        """``(acc, dclv)``: the scratch a per-edge span moves the operand
        ``dclv`` into, and ``dclv`` — ``None`` if compact, gathered already."""
        acc = self._slot(0, self.clv_shape)
        if isinstance(dclv, tuple):
            return self._gathered(dclv, pmats, acc), None
        return acc, dclv

    def root_site(self, clv: np.ndarray) -> np.ndarray:
        """Per-pattern site likelihoods of a root CLV (uncharged: the
        engine charges the enclosing reduction, as RAxML's evaluate job)."""
        return self._sweep(self._root_site_span, clv)

    def edge_site(self, uclv: np.ndarray, pmats: np.ndarray, dclv) -> np.ndarray:
        """Per-pattern site likelihoods across one edge; ``dclv`` is a
        down partial's :attr:`Partial.operand`."""
        self.ops.charge_edge(self.n_patterns, self.n_categories)
        acc, dclv = self._moved_into_scratch(dclv, pmats)
        return self._sweep(
            self._edge_site_span, acc, dclv, uclv, self._pi_full, self._slot(1, acc.shape),
            self._p2c, self._pgather(len(acc)), pmats=pmats,
        )

    def insertion_site(
        self,
        dclv,
        uclv: np.ndarray,
        sclv,
        pmats_half: np.ndarray,
        pmats_sub: np.ndarray,
    ) -> np.ndarray:
        """Lazy-SPR per-pattern site likelihoods: both edge halves and the
        pruned subtree propagated to the virtual insertion node; ``dclv``
        and ``sclv`` are down partials' :attr:`Partial.operand`.

        Charged as two CLV updates plus one edge evaluation (the subtree
        transport rides inside the edge job), matching RAxML's lazy-SPR
        kernel structure.
        """
        moved_sub = self._insertion_transport(sclv, pmats_sub)
        self.ops.charge_clv(self.n_patterns, self.n_categories, n=2)
        self.ops.charge_edge(self.n_patterns, self.n_categories)
        acc, dclv = self._moved_into_scratch(dclv, pmats_half)
        return self._sweep(
            self._insertion_span, acc, dclv, uclv, moved_sub, self._p2c,
            self._pgather(len(acc)), self._slot(1, acc.shape), pmats=pmats_half,
        )

    def _insertion_transport(self, sclv, pmats_sub: np.ndarray) -> np.ndarray:
        """The pruned subtree's CLV moved across its attachment branch
        (uncharged: it rides inside :meth:`insertion_site`'s edge job).
        ``P(t_sub)·sclv`` is identical for every candidate edge of one SPR
        step, so it is computed once per ``(sclv, pmats_sub)`` pair and
        reused while the engine scans candidates."""
        # Identity is judged by data pointer + shape; the memo holds
        # strong references to the operands, so no address can be
        # recycled by a different array while the memo is alive.  A
        # compact subtree's is its class rows' and its index's: every Γ
        # tip views the same 16 rows.
        compact = isinstance(sclv, tuple)
        rows, index = sclv if compact else (sclv, None)
        key = (
            rows.__array_interface__["data"][0],
            rows.shape,
            None if index is None else index.__array_interface__["data"][0],
            pmats_sub.__array_interface__["data"][0],
        )
        memo = self._ins_memo
        if memo is not None and memo[0] == key:
            return memo[2]
        moved = (self._gathered(sclv, pmats_sub) if compact
                 else self._moved(sclv, self._p2c, pmats_sub))
        self._ins_memo = (key, (sclv, pmats_sub), moved)
        return moved

    def sumtable(self, uclv: np.ndarray, dclv) -> tuple[np.ndarray, np.ndarray]:
        """Eigenbasis coefficient table for one edge (RAxML's sumtable);
        ``dclv`` is a down partial's :attr:`Partial.operand`.

        Returns ``(coef, exps)``; see
        :meth:`repro.likelihood.engine.LikelihoodEngine.edge_coefficients`.
        """
        shape = self.clv_shape
        if isinstance(dclv, tuple):
            dclv = self._gathered(dclv, None, self._slot(0, shape))
        coef = self._sweep(
            self._sumtable_span, uclv, dclv, self._pi_full,
            self._slot(1, shape), self._slot(2, shape),
        )
        self.ops.charge_sumtable(self.n_patterns, self.n_categories)
        return coef, self._pattern_exps if self.is_cat else self._exps

    def derivatives(
        self, coef: np.ndarray, exps: np.ndarray, t: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-pattern (site, dsite/dt, d²site/dt²) of the edge function;
        ``exps`` is what :meth:`sumtable` returned."""
        self.ops.charge_deriv(self.n_patterns, self.n_categories)
        if self.is_cat:  # one exponent row per pattern: an operand of the sweep
            return self._sweep(self._derivatives_span, coef, exps, self._slot(0, exps.shape), t=t)
        return self._sweep(self._derivatives_span, coef, exps=exps, t=t)

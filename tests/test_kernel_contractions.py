"""Every kernel contraction helper equals the ``np.einsum(...,
optimize=True)`` call it replaced, **bit for bit**.

The helpers (``repro.likelihood.kernels.base``, ``repro.likelihood.gtr``)
spell each contraction as the explicit ``matmul``/``reshape`` product
``optimize=True`` lowered it to, so no golden may move.  The oracle here
is the old call itself, on the operand layouts the engine really hands
to kernels: pattern-axis slices of a larger array (thread shards),
stride-0 broadcasts of tip CLVs, the transposed views one helper feeds
the next, and the Fortran-ordered ``U⁻¹`` that ``GTRModel._decompose``
holds.  If a site is not bit-equal on some NumPy/BLAS build, this file
names it; the fix is never to regenerate goldens.

The slice legs are also what lets ``KernelBackend.fuse_block`` cut the
pattern axis: the engine hands kernels the whole axis whatever the
thread count, and only the fused pipeline still blocks it.  One helper
here replaced a ``sum`` rather than an ``einsum`` (``_sum_states``).
Two are new products with no call to equal (``_newton_rows``,
``_site_sum``: the Γ Newton and site sums, which moved the goldens once
on purpose); they are held to their own whole-axis bits on any tiling.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generator import SimulationParams, simulate_alignment
from repro.likelihood.engine import LikelihoodEngine, TipPartials
from repro.likelihood.gtr import GTRModel, _spectral_products
from repro.likelihood.kernels.base import (
    KernelBackend,
    OpCounter,
    _newton_rows,
    _propagate_cat,
    _propagate_inner,
    _site_dot,
    _site_sum,
    _sum_states,
    _to_eigenbasis,
)
from repro.likelihood.rates import RateModel
from repro.seq.encoding import state_likelihood_rows
from repro.seq.patterns import compress_alignment
from repro.tree.topology import MAX_BRANCH_LENGTH
from tests.conftest import full_clv

#: Γ's 4 and the single rate; the CAT searches' 5/8/25 categories; the
#: simulator's 256-point rate grid.  4 -> 5 is where ``optimize=True``
#: changes the association order of the spectral product.
CATEGORY_COUNTS = (1, 4, 5, 8, 25, 256)
#: Cap on ``m * k`` per example so k = 256 stays a few MB per operand.
MAX_CELLS = 40_000

seeds = st.integers(0, 2**32 - 1)
#: Pattern counts 1...5,000, half of them at the toy sizes tier-1 runs on.
patterns = st.one_of(st.integers(1, 64), st.integers(1, 5000))
offsets = st.integers(0, 7)
#: Decimal exponent of an operand's magnitude: 1e-300 ... 1e100.
exponents = st.integers(-300, 100)

per_k = pytest.mark.parametrize("k", CATEGORY_COUNTS)
examples = settings(max_examples=25, deadline=None)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    got_bits = np.ascontiguousarray(got).view(np.uint64)
    want_bits = np.ascontiguousarray(want).view(np.uint64)
    assert np.array_equal(got_bits, want_bits), (
        f"{np.count_nonzero(got_bits != want_bits)} of {want_bits.size} "
        "entries differ from the call the helper replaced"
    )


def _shard(rng, m: int, off: int, tail: tuple[int, ...], exp: int) -> np.ndarray:
    """``m`` rows starting at ``off`` of a larger array: the view a
    worker's pattern slice is.  Entries are ``[0.5, 1.5) · 10**exp``."""
    full = (0.5 + rng.random((m + 8, *tail))) * 10.0**exp
    return full[off : off + m]


def _rows(m: int, k: int) -> int:
    return max(1, min(m, MAX_CELLS // k))


def _pmats(rng, k: int) -> np.ndarray:
    p = rng.random((k, 4, 4))
    return p / p.sum(axis=2, keepdims=True)


@per_k
class TestPropagate:
    @examples
    @given(seeds, patterns, offsets, exponents)
    def test_inner(self, k, seed, m, off, exp):
        rng = np.random.default_rng(seed)
        m = _rows(m, k)
        pm, clv = _pmats(rng, k), _shard(rng, m, off, (k, 4), exp)
        want = np.einsum("kab,mkb->mka", pm, clv, optimize=True)
        assert_same_bits(_propagate_inner(pm, clv), want)

    @examples
    @given(seeds, patterns, offsets)
    def test_inner_on_a_broadcast_tip(self, k, seed, m, off):
        """A tip's mask rows broadcast over categories with a stride of 0,
        as ``TipPartials`` holds them and the kernel moves them."""
        rng = np.random.default_rng(seed)
        m = _rows(m, k)
        masks = rng.integers(1, 16, size=m + 8)[off : off + m]
        tip = state_likelihood_rows()[masks]
        clv = np.broadcast_to(tip[:, None, :], (m, k, 4))
        pm = _pmats(rng, k)
        want = np.einsum("kab,mkb->mka", pm, clv, optimize=True)
        assert_same_bits(_propagate_inner(pm, clv), want)

    @examples
    @given(seeds, patterns, offsets, exponents)
    def test_cat(self, k, seed, m, off, exp):
        rng = np.random.default_rng(seed)
        p2c = rng.integers(0, k, size=m + 8)[off : off + m]
        pm, clv = _pmats(rng, k), _shard(rng, m, off, (4,), exp)
        want = np.einsum("pab,pb->pa", pm[p2c], clv, optimize=True)
        assert_same_bits(_propagate_cat(pm[p2c], clv), want)

    @examples
    @given(seeds, patterns, offsets, exponents, st.integers(2, 5))
    def test_stacked(self, k, seed, m, off, exp, q):
        """``qkab,qmkb->qmka``, one contraction for ``q`` edges of a
        level, is gone from the kernel's levels: the per-edge
        loop that replaced it gives each edge the same bits."""
        rng = np.random.default_rng(seed)
        m = _rows(m, k * q)
        pstack = np.stack([_pmats(rng, k) for _ in range(q)])
        cstack = (0.5 + rng.random((q, m + 8, k, 4))) * 10.0**exp
        shard = cstack[:, off : off + m]
        want = np.einsum("qkab,qmkb->qmka", pstack, shard, optimize=True)
        for j in range(q):
            assert_same_bits(_propagate_inner(pstack[j], shard[j]), want[j])

    def test_mask_table(self, k):
        """The 16 mask rows broadcast over the categories and moved by
        ``_propagate_inner`` — a Γ tip's rows crossing a branch — give
        the ``(k, 16, 4)`` mask table of the tip-case kernels."""
        rows = state_likelihood_rows()
        tip = np.broadcast_to(rows[:, None], (16, k, 4))
        for seed in range(20):
            pm = _pmats(np.random.default_rng(seed), k)
            want = np.einsum("kab,sb->ksa", pm, rows, optimize=True)
            assert_same_bits(_propagate_inner(pm, tip).transpose(1, 0, 2), want)


@per_k
class TestSiteDot:
    @examples
    @given(seeds, patterns, offsets, exponents, exponents)
    def test_gamma(self, k, seed, m, off, exp_u, exp_d):
        """The second operand is what ``_edge_site_span`` passes: the
        transposed view ``_propagate_inner`` returns."""
        rng = np.random.default_rng(seed)
        m = _rows(m, k)
        pi = rng.dirichlet(np.ones(4))
        scaled = _shard(rng, m, off, (k, 4), exp_u) * pi
        moved = _propagate_inner(_pmats(rng, k), _shard(rng, m, off, (k, 4), exp_d))
        want = np.einsum("mka,mka->m", scaled, moved, optimize=True)
        assert_same_bits(_site_dot(scaled, moved), want)

    @examples
    @given(seeds, patterns, offsets, exponents)
    def test_cat(self, k, seed, m, off, exp):
        rng = np.random.default_rng(seed)
        p2c = rng.integers(0, k, size=m)
        scaled = _shard(rng, m, off, (4,), exp) * rng.dirichlet(np.ones(4))
        moved = _propagate_cat(_pmats(rng, k)[p2c], _shard(rng, m, off, (4,), 0))
        want = np.einsum("pa,pa->p", scaled, moved, optimize=True)
        assert_same_bits(_site_dot(scaled, moved), want)


class TestStateSum:
    """``_sum_states`` against the ``sum(axis=1)`` it replaced in the CAT
    derivative sums.  This one is not an einsum: what it pins is the
    order NumPy adds fewer than 8 elements in (left to right, no
    pairwise split) — NumPy's business, like the einsum paths."""

    @settings(max_examples=100, deadline=None)
    @given(seeds, patterns, offsets, st.integers(-300, 300), st.booleans())
    def test_equals_sum_over_axis_1(self, seed, m, off, exp, sliced):
        """Contiguous tables and pattern-axis slices of a larger one;
        every entry its own sign and its own magnitude within 8 decades
        of ``10**exp``, so adds round, cancel and go subnormal."""
        rng = np.random.default_rng(seed)
        rows = m + 8 if sliced else m
        spread = np.clip(exp + rng.integers(-8, 1, size=(rows, 4)), -300, 300)
        full = (0.5 + rng.random((rows, 4))) * 10.0**spread
        full *= rng.choice([-1.0, 1.0], size=(rows, 4))
        table = full[off : off + m] if sliced else full
        assert_same_bits(_sum_states(table), table.sum(axis=1))

    def test_the_order_is_left_to_right(self):
        """The pairwise order ``(a + b) + (c + d)`` rounds differently."""
        x = np.array([[1.0, 2.0**-53, 2.0**-53, 2.0**-52]])
        left = ((x[:, 0] + x[:, 1]) + x[:, 2]) + x[:, 3]
        pairwise = (x[:, 0] + x[:, 1]) + (x[:, 2] + x[:, 3])
        assert left != pairwise
        assert_same_bits(_sum_states(x), left)
        assert_same_bits(x.sum(axis=1), left)


def _random_model(rng) -> GTRModel:
    return GTRModel(
        rates=tuple(0.2 + 4.0 * rng.random(6)), freqs=tuple(rng.dirichlet(5 * np.ones(4)))
    )


@per_k
class TestEigenbasis:
    @examples
    @given(seeds, patterns, offsets, exponents)
    def test_sumtable_operands(self, k, seed, m, off, exp):
        rng = np.random.default_rng(seed)
        m = _rows(m, k)
        model = _random_model(rng)
        u, u_inv = model._spectral[1:3]
        assert u_inv.strides == (8, 32)  # Fortran order, as the kernels get it
        uclv = _shard(rng, m, off, (k, 4), exp) * model.pi
        dclv = _shard(rng, m, off, (k, 4), exp)
        tip = np.broadcast_to(_shard(rng, m, off, (4,), 0)[:, None, :], (m, k, 4))
        assert_same_bits(
            _to_eigenbasis(uclv, u), np.einsum("mka,aj->mkj", uclv, u, optimize=True)
        )
        for clv in (dclv, tip):
            want = np.einsum("mkb,jb->mkj", clv, u_inv, optimize=True)
            assert_same_bits(_to_eigenbasis(clv, u_inv.T), want)


@per_k
class TestSpectralProducts:
    """``GTRModel.transition_matrices`` and its derivative against the
    three-operand einsum they used to be — on both sides of the k = 4 -> 5
    path switch (delete the ``k >= 5`` branch and k = 5, 8, 25, 256 fail)."""

    @examples
    @given(seeds, st.floats(0.0, 10.0), st.floats(1e-8, 1e-2))
    def test_transition_matrices(self, k, seed, t, tiny_t):
        rng = np.random.default_rng(seed)
        model = _random_model(rng)
        lam, u, u_inv = model._spectral[:3]
        r = 4.0 * rng.random(k)
        for length in (t, tiny_t):
            e = np.exp(np.outer(r * length, lam))
            want = np.einsum("ij,kj,jl->kil", u, e, u_inv, optimize=True)
            assert_same_bits(_spectral_products(u, e, u_inv, model._spectral[4]), want)
            assert_same_bits(model.transition_matrices(length, r), np.maximum(want, 0.0))
            de = e * (r[:, None] * lam[None, :])
            want = np.einsum("ij,kj,jl->kil", u, de, u_inv, optimize=True)
            assert_same_bits(model.transition_matrix_derivatives(length, r), want)


@pytest.mark.parametrize("k", (1, 4, 5, 8, 25))
@pytest.mark.parametrize("n", (1, 2, 3, 17, 300))
def test_stack_builder_is_the_per_length_builder(k, n):
    """``transition_matrix_stack`` (the kernel's one P build per plan)
    against one ``transition_matrices`` call per length: each slice the
    single build's bits, on both sides of the k = 4 -> 5 switch, with
    repeated lengths, 0 and ``MAX_BRANCH_LENGTH`` in the stack.  It
    holds while BLAS rounds each stacked (4, 4) product, and each
    ``(k, 4) @ (4, 16)`` row, exactly as it rounds alone."""
    rng = np.random.default_rng(100 * k + n)
    model = _random_model(rng)
    r = 4.0 * rng.random(k)
    pool = [0.0, MAX_BRANCH_LENGTH, *rng.exponential(0.1, 4), *10.0 ** rng.uniform(-8, 1, 4)]
    lengths = rng.choice(pool, n)
    lengths[: min(n, 2)] = (0.0, MAX_BRANCH_LENGTH)[: min(n, 2)]
    stack = model.transition_matrix_stack(lengths, r)
    assert stack.shape == (n, k, 4, 4)
    for t, pmats in zip(lengths, stack):
        assert_same_bits(pmats, model.transition_matrices(float(t), r))


def test_the_two_spectral_orders_really_differ():
    """Why ``_spectral_products`` keeps a branch: written one way for every
    k, some pinned result moves in the last ulp."""
    rng = np.random.default_rng(7)
    model = _random_model(rng)
    lam, u, u_inv, _, pairs = model._spectral
    e = np.exp(np.outer(rng.random(8), lam))
    scaled = (u[None] * e[:, None, :]) @ u_inv
    paired = (e @ pairs).reshape(8, 4, 4)
    assert np.allclose(scaled, paired, rtol=1e-14, atol=0.0)
    assert not np.array_equal(scaled.view(np.uint64), paired.view(np.uint64))


#: Tile widths of a random tiling: every tile >= 2 patterns, as any
#: cut of the pattern axis must be (one pattern takes BLAS's
#: matrix-vector routines); the widths repeat until the axis is covered.
tile_widths = st.lists(st.integers(2, 300), min_size=1, max_size=8)


def _tiles(m: int, widths: list[int]) -> list[slice]:
    """``widths`` repeated over ``m`` patterns, the last tile ragged — and
    folded into the one before it if it would be one pattern wide."""
    cuts, i = [0], 0
    while cuts[-1] < m:
        cuts.append(min(cuts[-1] + widths[i % len(widths)], m))
        i += 1
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("k", (1, 4))
class TestTilingInvariantForms:
    """The two Γ sums that are new products rather than spellings of an
    einsum — the Newton triple as one ``(3, 4k) @ (4k, m)`` product
    (``_newton_rows``) and the site sum as one ``(1, 4k) @ (4k, 1)``
    product per pattern (``_site_sum``): cut the pattern axis into any
    tiles of two or more patterns, ragged last tile included, and each
    tile's result is the whole axis's, bit for bit.
    ``k`` is what the engine builds, Γ's 4 and a single rate; with this
    OpenBLAS the Newton product keeps that up to k = 7 (EXPERIMENTS.md,
    "Newton as one product")."""

    @examples
    @given(seeds, st.integers(2, 5000), tile_widths, exponents, st.floats(0.0, 10.0))
    def test_newton_triple(self, k, seed, m, widths, exp, t):
        rng = np.random.default_rng(seed)
        m = _rows(m, k)
        coef = rng.standard_normal((m, k, 4)) * 10.0**exp
        exps = np.outer(rng.random(k) * 4.0, -rng.random(4) * 2.0)
        whole = _newton_rows(coef, exps, t)
        tiled = np.concatenate(
            [_newton_rows(coef[sl], exps, t) for sl in _tiles(m, widths)], axis=1
        )
        assert_same_bits(tiled, whole)

    @examples
    @given(seeds, st.integers(2, 5000), tile_widths, exponents)
    def test_site_sum(self, k, seed, m, widths, exp):
        rng = np.random.default_rng(seed)
        m = _rows(m, k)
        clv = _shard(rng, m, 3, (k, 4), exp)
        column = np.tile(rng.dirichlet(np.ones(4)), k).reshape(-1, 1)
        whole = _site_sum(clv, column)
        tiled = np.concatenate([_site_sum(clv[sl], column) for sl in _tiles(m, widths)])
        assert_same_bits(tiled, whole)


@pytest.mark.parametrize("k", (1, 4, 8))
class TestFusedBlocks:
    """The pattern-major block forms of the kernel's fused pipeline
    against the category-major ``(k, n, 4)`` blocks it used to build: a
    tip block as one ``np.take`` on the ``(16, k·4)`` view of the tip's
    moved mask rows (any compact partial's block alike), an edge block as ``_propagate_inner``'s ``matmul`` written
    through ``out=buf.transpose(1, 0, 2)`` on a ``[lo:hi]`` slice.  Block
    widths 2, 7 and 4,096, the wider two with a ragged last block — never
    a one-pattern block (BLAS matrix-vector routines, EXPERIMENTS.md)."""

    #: (block width, patterns): full blocks, then a ragged last one of
    #: 5 and of 2,049 patterns (three full blocks at width 2).
    SHAPES = ((2, 6), (7, 19), (4096, 6145))

    @staticmethod
    def _blocks(m: int, width: int):
        for lo in range(0, m, width):
            yield lo, min(lo + width, m)

    @pytest.mark.parametrize("width,m", SHAPES)
    def test_tip_block_is_one_take_on_the_flat_table(self, k, width, m):
        rng = np.random.default_rng(width * 31 + k)
        pm = _pmats(rng, k)
        tip = np.broadcast_to(state_likelihood_rows()[:, None], (16, k, 4))
        by_mask = _propagate_inner(pm, tip)  # (16, k, 4)
        by_cat = by_mask.transpose(1, 0, 2)  # (k, 16, 4)
        masks = rng.integers(1, 16, size=m)
        for lo, hi in self._blocks(m, width):
            n = hi - lo
            assert n >= 2
            want = np.empty((k, n, 4))
            for j in range(k):
                np.take(by_cat[j], masks[lo:hi], axis=0, out=want[j])
            got = np.empty((n, k, 4))
            np.take(
                by_mask.reshape(16, k * 4), masks[lo:hi], axis=0,
                out=got.reshape(n, k * 4), mode="clip",
            )
            assert_same_bits(got, want.transpose(1, 0, 2))

    @pytest.mark.parametrize("width,m", SHAPES)
    @pytest.mark.parametrize("exp", (-300, 0, 100))
    def test_edge_block_is_propagate_inner_on_a_slice(self, k, width, m, exp):
        rng = np.random.default_rng(width * 37 + k)
        pm = _pmats(rng, k)
        clv = _shard(rng, m, 3, (k, 4), exp)
        whole = _propagate_inner(pm, clv)
        scratch = np.empty((width, k, 4))
        for lo, hi in self._blocks(m, width):
            n = hi - lo
            want = np.empty((k, n, 4))
            np.matmul(
                clv[lo:hi].transpose(1, 0, 2),
                np.ascontiguousarray(pm.transpose(0, 2, 1)),
                out=want,
            )
            got = scratch[:n]
            np.matmul(
                clv[lo:hi].transpose(1, 0, 2),
                np.ascontiguousarray(pm.transpose(0, 2, 1)),
                out=got.transpose(1, 0, 2),
            )
            assert_same_bits(got, want.transpose(1, 0, 2))
            assert_same_bits(got, whole[lo:hi])


class TestTipRows:
    """A tip's rows moved across a branch by the kernel (``TipPartials``
    through ``KernelBackend._class_moved``), gathered at every pattern,
    against the tip table the kernel gathered from before tips were
    compact partials, ``TIP_ROWS @ pmats.transpose(0, 2, 1)`` — copied
    here — over all 16 codes: under Γ bit for bit; under CAT, whose moves
    are ``pab,pb->pa`` einsums, bit for bit for the codes of at most two
    states, and to rounding for the 3- and 4-state codes, whose sums the
    einsum takes in another order."""

    @staticmethod
    def _parent_table(pmats: np.ndarray) -> np.ndarray:
        return state_likelihood_rows() @ pmats.transpose(0, 2, 1)  # (k, 16, 4)

    @staticmethod
    def _moved(rate_model, masks: np.ndarray, model: GTRModel, t: float):
        m = len(masks)
        kernel = KernelBackend(model, rate_model, OpCounter(), m, 1)
        tip = TipPartials(masks[None], rate_model.pattern_to_cat, kernel.clv_shape[1:])[0]
        pmats = kernel.pmatrices(t)
        return kernel._class_moved(tip.clv, tip.index, pmats)[tip.index], pmats

    @pytest.mark.parametrize("k", (1, 2, 4, 8))
    def test_gamma_every_code(self, k):
        masks = np.arange(16, dtype=np.uint8)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rm = RateModel.gamma(0.2 + 2.0 * rng.random(), k)
            got, pmats = self._moved(rm, masks, _random_model(rng), rng.exponential(0.3))
            assert_same_bits(got, self._parent_table(pmats).transpose(1, 0, 2))

    @pytest.mark.parametrize("k", (1, 3, 8, 25))
    def test_cat_codes_of_up_to_two_states(self, k):
        masks = np.repeat(np.arange(16, dtype=np.uint8), k)
        p2c = np.tile(np.arange(k), 16)
        few = np.array([bin(c).count("1") <= 2 for c in range(16)])[masks]
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rm = RateModel.cat(0.1 + 3.0 * rng.random(k), p2c)
            got, pmats = self._moved(rm, masks, _random_model(rng), rng.exponential(0.3))
            want = self._parent_table(pmats)[p2c, masks]
            assert_same_bits(got[few], want[few])
            np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)


# -- scratch and per-kernel operands --------------------------------------------
#
# The per-edge kernels write their transients into the kernel's scratch
# slots and broadcast per-kernel constants once (``kernels/base.py``,
# "Scratch").  Held here on the benchmark's wide input — 8 taxa x 40,000
# sites, seed 4242: 4,610 patterns, where every Γ down partial is compact
# (site repeats) — under Γ and CAT: what they allocate, what they hand
# out, and their bits against the expressions they replaced.

_WIDE_MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))


@pytest.fixture(scope="module", params=["gamma", "cat"])
def wide(request):
    """``(kernel, edges)`` on the wide input: per non-root node its down
    operand and up CLV; an inner node's down partial also at every
    pattern, so both operand forms are read."""
    aln, tree = simulate_alignment(SimulationParams(n_taxa=8, n_sites=40_000, seed=4242))
    pal = compress_alignment(aln)
    m = pal.n_patterns
    assert m == 4610
    rm = (RateModel.gamma(0.8, 4) if request.param == "gamma"
          else RateModel.cat(np.array([0.4, 1.0, 2.1, 3.3]), np.arange(m) % 4))
    engine = LikelihoodEngine(pal, _WIDE_MODEL, rm)
    down = engine.compute_down_partials(tree)
    up = engine.compute_up_partials(tree, down)
    edges = []
    for node in tree.postorder():
        if node is not tree.root:
            part = down[id(node)]
            edges.append((part.operand, up[id(node)].clv))
            if not node.is_leaf:
                edges.append((full_clv(part), up[id(node)].clv))
    return engine.kernel, edges


def _clv_bytes(kernel: KernelBackend) -> int:
    return 8 * int(np.prod(kernel.clv_shape))


def _peak_rise(call):
    """``(result, bytes)``: what ``call()`` returns and how far it raised
    the traced peak above what was allocated before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _edge_calls(kernel: KernelBackend, edges):
    """One call of each per-edge kernel per edge, as ``(name, call)``; the
    insertion scores prune one leaf at one length, as an SPR step scans
    its candidates (the transport memo holds)."""
    sub = next(d for d, _ in edges if isinstance(d, tuple))
    half, t_sub = kernel.pmatrices(0.05), kernel.pmatrices(0.1)
    calls = []
    for d, u in edges:
        calls.append(("sumtable", lambda d=d, u=u: _newton(kernel, u, d)))
        calls.append(("insertion_site",
                      lambda d=d, u=u: (kernel.insertion_site(d, u, sub, half, t_sub),)))
        calls.append(("edge_site", lambda d=d, u=u: (kernel.edge_site(u, half, d),)))
    return calls


def _newton(kernel: KernelBackend, uclv, dclv):
    """A sumtable and two Newton evaluations on it; ``exps`` is the
    kernel's constant, not a result."""
    coef, exps = kernel.sumtable(uclv, dclv)
    return (coef, *kernel.derivatives(coef, exps, 0.07), *kernel.derivatives(coef, exps, 0.3))


class TestScratch:
    """Scratch holds only what a call consumes before it returns."""

    def test_a_warm_kernel_allocates_what_it_returns(self, wide):
        """Each call raises the traced peak by the bytes it returns plus
        less than one CLV: no pattern-sized temporary is allocated."""
        kernel, edges = wide
        calls = _edge_calls(kernel, edges)
        for _, call in calls:  # warm: slots grown, constants and memo built
            call()
        for name, call in calls:
            result, rise = _peak_rise(call)
            returned = sum(a.nbytes for a in result)
            assert rise < returned + _clv_bytes(kernel), (name, rise, returned)

    def test_nothing_returned_is_scratch(self, wide):
        kernel, edges = wide
        results = [a for _, call in _edge_calls(kernel, edges) for a in call()]
        results.append(kernel.sumtable(edges[0][1], edges[0][0])[1])
        assert kernel._slots
        for a in results:
            for buf in kernel._slots.values():
                assert not np.shares_memory(a, buf)

    def test_a_first_result_survives_later_calls(self, wide):
        kernel, edges = wide
        first = {name: [a.copy() for a in call()] for name, call in _edge_calls(kernel, edges)[:3]}
        held = {name: call() for name, call in _edge_calls(kernel, edges)[:3]}
        for _, call in _edge_calls(kernel, edges)[3:]:
            call()
        for name, arrays in held.items():
            for got, want in zip(arrays, first[name]):
                assert_same_bits(got, want)


def _parent_propagate(kernel: KernelBackend, pmats, clv, p2c):
    """The propagation the per-edge kernels used to allocate."""
    if kernel.is_cat:
        return np.einsum("pab,pb->pa", pmats[p2c], clv)
    return _propagate_inner(pmats, clv)


def _parent_gathered(kernel: KernelBackend, operand, pmats):
    rows, index = operand
    if pmats is not None:
        cats = None
        if kernel.is_cat:
            cats = np.empty(len(rows), kernel._p2c.dtype)
            cats[index] = kernel._p2c
        rows = _parent_propagate(kernel, pmats, rows, cats)
    return rows.take(index, axis=0, mode="clip")


class TestCachedOperands:
    """The per-kernel operands and the per-edge kernels, bit for bit
    against the expressions they replaced (copied here)."""

    @pytest.mark.parametrize("rate", ["k1", "k2", "k4", "k8", "cat"])
    @examples
    @given(seeds, patterns, exponents)
    def test_full_shape_pi_is_the_broadcast_product(self, rate, seed, m, exp):
        rng = np.random.default_rng(seed)
        model = _random_model(rng)
        rm = (RateModel.cat(0.1 + 3.0 * rng.random(5), rng.integers(0, 5, m)) if rate == "cat"
              else RateModel.gamma(0.2 + 2.0 * rng.random(), int(rate[1:])))
        kernel = KernelBackend(model, rm, OpCounter(), m, 4)
        uclv = _shard(rng, m, 3, kernel.clv_shape[1:], exp)
        assert not kernel._pi_full.flags.writeable
        assert_same_bits(uclv * kernel._pi_full, uclv * model.pi)

    def test_the_exponent_table_is_built_once(self, wide):
        """Every sumtable hands out the kernel's one read-only table:
        under CAT ``_exps[p2c]``, which it used to gather per call."""
        kernel, edges = wide
        table = kernel._pattern_exps if kernel.is_cat else kernel._exps
        assert not table.flags.writeable
        for d, u in edges[:3]:
            assert kernel.sumtable(u, d)[1] is table
        if kernel.is_cat:
            assert_same_bits(table, kernel._exps[kernel._p2c])

    def test_sumtable_and_derivatives(self, wide):
        kernel, edges = wide
        u, u_inv = kernel.model._spectral[1:3]
        for d, uclv in edges:
            coef, exps = kernel.sumtable(uclv, d)
            dclv = _parent_gathered(kernel, d, None) if isinstance(d, tuple) else d
            x = _to_eigenbasis(uclv * kernel.model.pi, u)
            y = _to_eigenbasis(dclv, u_inv.T)
            want = x * y if kernel.is_cat else x * y / kernel.n_categories
            assert_same_bits(coef, want)
            want_exps = kernel._exps[kernel._p2c] if kernel.is_cat else kernel._exps
            assert_same_bits(exps, want_exps)
            for t in (0.0, 1e-6, 0.07, 2.5):
                got = kernel.derivatives(coef, exps, t)
                if kernel.is_cat:
                    term = coef * np.exp(want_exps * t)
                    want = [_sum_states(term)]
                    for _ in range(2):
                        np.multiply(term, want_exps, out=term)
                        want.append(_sum_states(term))
                else:
                    want = _newton_rows(coef, want_exps, t)
                for g, w in zip(got, want):
                    assert_same_bits(g, w)

    def test_insertion_and_edge_sites(self, wide):
        kernel, edges = wide
        p2c, pi = kernel._p2c, kernel.model.pi
        half, t_sub = kernel.pmatrices(0.05), kernel.pmatrices(0.1)
        for sub, _ in edges[:3]:
            moved_sub = (_parent_gathered(kernel, sub, t_sub) if isinstance(sub, tuple)
                         else _parent_propagate(kernel, t_sub, sub, p2c))
            for d, uclv in edges:
                acc = (_parent_gathered(kernel, d, half) if isinstance(d, tuple)
                       else _parent_propagate(kernel, half, d, p2c))
                site = _site_dot(uclv * pi, acc)
                want = site if kernel.is_cat else site / kernel.n_categories
                assert_same_bits(kernel.edge_site(uclv, half, d), want)
                np.multiply(acc, _parent_propagate(kernel, half, uclv, p2c), out=acc)
                np.multiply(acc, moved_sub, out=acc)
                want = (acc @ pi if kernel.is_cat
                        else _site_sum(acc, kernel._pi_column) / kernel.n_categories)
                assert_same_bits(kernel.insertion_site(d, uclv, sub, half, t_sub), want)

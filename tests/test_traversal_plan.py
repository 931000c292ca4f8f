"""Tests for the traversal-plan likelihood core.

Covers the three layers of the refactor: the planner (signatures, dirty
tracking, CLV cache), the kernel (span-tiling bit-identity through the
``_sweep`` hook, the two names the benchmark harness passes), and the
engine (serial == threaded bit-identity, op-count parity, degenerate
chunks).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import test_dataset as _make_dataset
from repro.likelihood.engine import (
    LikelihoodEngine,
    OpCounter,
    RateModel,
    subset_rate_model,
)
from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels import (
    BatchedKernel,
    KernelBackend,
    available_kernels,
    get_kernel,
)
from repro.likelihood.plan import (
    CLVCache,
    plan_traversal,
    subtree_signatures,
)
from repro.threads.pool import VirtualThreadPool
from repro.threads.timing import LinearRegionTiming
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom
from tests.test_kernel_sweeps import Tiled, rate_models as _rate_models

# Module-level data so hypothesis tests avoid function-scoped fixtures.
_PAL, _ = _make_dataset(n_taxa=8, n_sites=150, seed=202)
_MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))


class TinyBlocked(Tiled, KernelBackend):
    """A kernel subclass that cuts the pattern axis into 7-pattern tiles
    through the ``KernelBackend._sweep`` hook."""

    block_size = 7

    def _tiles(self) -> list[slice]:
        m, b = self.n_patterns, self.block_size
        return [slice(lo, min(lo + b, m)) for lo in range(0, m, b)]


def _random_moves(tree, rng: RAxMLRandom, n_moves: int) -> None:
    """Mutate ``tree`` in place with a random SPR/NNI/brlen sequence."""
    for _ in range(n_moves):
        kind = rng.next_int(3)
        edges = [n for n in tree.postorder() if n.parent is not None]
        if kind == 0:  # branch-length perturbation
            node = edges[rng.next_int(len(edges))]
            node.length = min(max(node.length * (0.5 + rng.next_double()), 1e-6), 10.0)
        elif kind == 1:  # NNI
            internal = tree.internal_edges()
            if internal:
                tree.nni(internal[rng.next_int(len(internal))], rng.next_int(2))
        else:  # SPR (skip invalid prune/regraft combinations)
            prune = edges[rng.next_int(len(edges))]
            target = edges[rng.next_int(len(edges))]
            try:
                tree.spr(prune, target)
            except ValueError:
                pass


class TestSignatures:
    def test_copy_preserves_signatures(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(7))
        sig_a = subtree_signatures(tree.postorder())
        copy = tree.copy()
        sig_b = subtree_signatures(copy.postorder())
        a = {sig_a[id(n)] for n in tree.postorder()}
        b = {sig_b[id(n)] for n in copy.postorder()}
        assert a == b  # structural hashing survives node-identity changes

    def test_branch_change_dirties_only_root_path(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(7))
        before = subtree_signatures(tree.postorder())
        edge = tree.internal_edges()[0]
        edge.length *= 1.5
        after = subtree_signatures(tree.postorder())
        # Dirty set = ancestors of the changed edge (its child subtree is
        # untouched: the parent branch is not part of a node's signature).
        dirty = {id(n) for n in tree.postorder() if before[id(n)] != after[id(n)]}
        path = set()
        node = edge.parent
        while node is not None:
            path.add(id(node))
            node = node.parent
        assert dirty == path
        assert id(tree.root) in dirty

    def test_child_order_matters(self):
        # CLV products are float-order-sensitive, so child order must be
        # part of the signature.
        tree = yule_tree(_PAL.taxa, RAxMLRandom(7))
        inner = tree.internal_edges()[0]
        before = subtree_signatures(tree.postorder())[id(inner)]
        inner.children.reverse()
        after = subtree_signatures(tree.postorder())[id(inner)]
        assert before != after


class TestPlanner:
    def test_plan_covers_all_nodes_postorder(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(3))
        plan = plan_traversal(tree)
        nodes = list(tree.postorder())
        assert [op.node for op in plan.ops] == nodes
        assert plan.n_tip == sum(1 for n in nodes if n.is_leaf)
        assert plan.n_inner == sum(1 for n in nodes if not n.is_leaf)
        assert plan.n_cached == 0
        assert plan.root is tree.root

    def test_warm_cache_plans_all_cached(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(3))
        engine = LikelihoodEngine(
            _PAL, _MODEL, RateModel.gamma(0.8, 4), clv_cache=True
        )
        engine.loglikelihood(tree)
        plan = plan_traversal(tree, engine.clv_cache)
        assert plan.n_inner == 0
        assert plan.n_cached == plan.n_internal

    def test_move_invalidates_only_root_path(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(3))
        engine = LikelihoodEngine(
            _PAL, _MODEL, RateModel.gamma(0.8, 4), clv_cache=True
        )
        engine.loglikelihood(tree)
        work = tree.copy()
        edge = work.internal_edges()[0]
        edge.length *= 2.0
        plan = plan_traversal(work, engine.clv_cache)
        depth = 0
        node = edge.parent
        while node is not None:
            depth += 1
            node = node.parent
        assert plan.n_inner == depth  # only the dirtied root path recomputes
        assert plan.n_cached == plan.n_internal - depth


class TestCLVCache:
    def test_incremental_fewer_clv_updates_and_identical_lnl(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(11))
        scratch = LikelihoodEngine(_PAL, _MODEL, RateModel.gamma(0.8, 4))
        cached = LikelihoodEngine(
            _PAL, _MODEL, RateModel.gamma(0.8, 4), clv_cache=True
        )
        assert cached.loglikelihood(tree) == scratch.loglikelihood(tree)
        work = tree.copy()
        work.internal_edges()[0].length *= 1.7
        before = cached.ops.clv_updates
        lnl_cached = cached.loglikelihood(work)
        incremental = cached.ops.clv_updates - before
        before = scratch.ops.clv_updates
        lnl_scratch = scratch.loglikelihood(work)
        full = scratch.ops.clv_updates - before
        assert lnl_cached == lnl_scratch  # bitwise
        assert incremental < full

    def test_eviction_falls_back_to_compute(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(11))
        cache = CLVCache(max_entries=2)
        engine = LikelihoodEngine(
            _PAL, _MODEL, RateModel.gamma(0.8, 4), clv_cache=cache
        )
        scratch = LikelihoodEngine(_PAL, _MODEL, RateModel.gamma(0.8, 4))
        for _ in range(3):  # thrashes the 2-entry cache, results unharmed
            assert engine.loglikelihood(tree) == scratch.loglikelihood(tree)
        assert len(cache) <= 2
        assert cache.evictions > 0

    def test_with_weights_shares_cache_with_model_does_not(self):
        engine = LikelihoodEngine(
            _PAL, _MODEL, RateModel.gamma(0.8, 4), clv_cache=True
        )
        reweighted = engine.with_weights(np.ones(_PAL.n_patterns))
        assert reweighted.clv_cache is engine.clv_cache
        remodelled = engine.with_model(GTRModel.default())
        assert remodelled.clv_cache is not None
        assert remodelled.clv_cache is not engine.clv_cache

    @pytest.mark.parametrize("max_entries", [0, 5])
    def test_fresh_cache_keeps_capacity(self, max_entries):
        """A caller's budget (0 = disabled) must survive the engine swap
        ``optimize_model`` performs, or op totals drift after it."""
        engine = LikelihoodEngine(
            _PAL, _MODEL, clv_cache=CLVCache(max_entries=max_entries)
        )
        for derived in (
            engine.with_model(GTRModel.default()),
            engine.with_rate_model(RateModel.gamma(0.5, 4)),
        ):
            assert derived.clv_cache is not engine.clv_cache
            assert len(derived.clv_cache) == 0
            assert derived.clv_cache.max_entries == max_entries

    def test_stats_shape(self):
        cache = CLVCache()
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
        }


class TestKernelBackends:
    def test_registry(self):
        """The two names the benchmark harness passes map to the one
        kernel (until ROADMAP item 1(e)); any other name is refused."""
        assert set(available_kernels()) == {"reference", "batched"}
        assert get_kernel("reference") is get_kernel("batched") is KernelBackend
        assert BatchedKernel is KernelBackend
        with pytest.raises(ValueError):
            get_kernel("no-such-backend")

    def test_register_custom_backend(self):
        """A kernel subclass handed to the engine is the one it runs."""
        tree = yule_tree(_PAL.taxa, RAxMLRandom(5))
        ref = LikelihoodEngine(_PAL, _MODEL, RateModel.gamma(0.8, 4))
        tiny = LikelihoodEngine(
            _PAL, _MODEL, RateModel.gamma(0.8, 4), kernel_class=TinyBlocked
        )
        assert type(tiny.kernel) is TinyBlocked
        assert type(tiny.with_weights(tiny.weights).kernel) is TinyBlocked
        assert tiny.loglikelihood(tree) == ref.loglikelihood(tree)
        blocks = -(-_PAL.n_patterns // TinyBlocked.block_size)
        assert tiny.kernel.spans == tiny.kernel.sweeps * blocks > 0

    @pytest.mark.parametrize("rm_name", ["gamma", "gamma+I", "cat"])
    def test_blocked_bit_identical(self, rm_name):
        rm = _rate_models(_PAL.n_patterns)[rm_name]
        tree = yule_tree(_PAL.taxa, RAxMLRandom(5))
        ref = LikelihoodEngine(_PAL, _MODEL, rm)
        blk = LikelihoodEngine(_PAL, _MODEL, rm, kernel_class=TinyBlocked)
        assert blk.loglikelihood(tree) == ref.loglikelihood(tree)
        assert np.array_equal(
            blk.site_loglikelihoods(tree), ref.site_loglikelihoods(tree)
        )
        # Edge machinery too: Newton derivative triples must match bitwise.
        down_r = ref.compute_down_partials(tree)
        up_r = ref.compute_up_partials(tree, down_r)
        down_b = blk.compute_down_partials(tree)
        up_b = blk.compute_up_partials(tree, down_b)
        edge = tree.internal_edges()[0]
        cr = ref.edge_coefficients(down_r[id(edge)], up_r[id(edge)])
        cb = blk.edge_coefficients(down_b[id(edge)], up_b[id(edge)])
        assert ref.edge_lnl_and_derivatives(*cr, 0.31) == \
            blk.edge_lnl_and_derivatives(*cb, 0.31)


class TestOpCountParity:
    """Satellite: op totals must match between serial, threaded, and
    (cold-)cached runs, with every charge issued from the kernel layer."""

    def _exercise(self, engine, tree) -> dict[str, int]:
        engine.loglikelihood(tree)
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        edge = tree.internal_edges()[0]
        d, u = down[id(edge)], up[id(edge)]
        engine.edge_loglikelihood(edge, edge.length, d, u)
        coef, exps, logscale = engine.edge_coefficients(d, u)
        engine.edge_lnl_and_derivatives(coef, exps, logscale, 0.17)
        leaf_edge = [n for n in tree.postorder() if n.parent is not None][0]
        sub = engine.compute_down_partials(tree, subtree=leaf_edge)
        engine.insertion_loglikelihood(
            d, u, sub[id(leaf_edge)], edge.length, 0.1
        )
        return engine.ops.snapshot()

    @pytest.mark.parametrize("rm_name", ["gamma", "cat"])
    def test_serial_threaded_cached_identical_totals(self, rm_name):
        rm = _rate_models(_PAL.n_patterns)[rm_name]
        tree = yule_tree(_PAL.taxa, RAxMLRandom(29))
        serial = self._exercise(LikelihoodEngine(_PAL, _MODEL, rm), tree)
        threaded = self._exercise(
            LikelihoodEngine(_PAL, _MODEL, rm, pool=VirtualThreadPool(4)), tree
        )
        cached_cold = self._exercise(
            LikelihoodEngine(_PAL, _MODEL, rm, clv_cache=True), tree
        )
        blocked = self._exercise(
            LikelihoodEngine(_PAL, _MODEL, rm, kernel_class=TinyBlocked), tree
        )
        assert serial == threaded
        assert serial == blocked
        # A cold cache charges full work on first touch; the later calls
        # in the exercise reuse partials the cache already holds.
        assert cached_cold["pattern_ops"] <= serial["pattern_ops"]
        assert cached_cold["edge_evals"] == serial["edge_evals"]
        assert cached_cold["sumtables"] == serial["sumtables"]
        assert cached_cold["deriv_evals"] == serial["deriv_evals"]

    def test_derivatives_are_charged(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(29))
        engine = LikelihoodEngine(_PAL, _MODEL, RateModel.gamma(0.8, 4))
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        edge = tree.internal_edges()[0]
        coef, exps, logscale = engine.edge_coefficients(
            down[id(edge)], up[id(edge)]
        )
        assert engine.ops.sumtables == 1
        before = engine.ops.snapshot()
        engine.edge_lnl_and_derivatives(coef, exps, logscale, 0.4)
        after = engine.ops.snapshot()
        assert after["deriv_evals"] == before["deriv_evals"] + 1
        assert after["pattern_ops"] == (
            before["pattern_ops"] + _PAL.n_patterns * engine.n_categories
        )


class TestBitIdentityProperty:
    """Satellite: cached/incremental evaluation after random SPR/NNI/brlen
    move sequences is bit-identical to from-scratch, across GAMMA, CAT,
    and +I — and across thread counts and axis tilings."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6), n_moves=st.integers(1, 5))
    def test_incremental_matches_scratch(self, seed, n_moves):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(seed % 2**31 + 1))
        rng = RAxMLRandom(seed + 17)
        for rm in _rate_models(_PAL.n_patterns).values():
            cached = LikelihoodEngine(_PAL, _MODEL, rm, clv_cache=True)
            work = tree.copy()
            cached.loglikelihood(work)  # warm the cache on the start tree
            _random_moves(work, rng, n_moves)
            scratch = LikelihoodEngine(_PAL, _MODEL, rm)
            assert cached.loglikelihood(work) == scratch.loglikelihood(work)
            assert np.array_equal(
                cached.site_loglikelihoods(work),
                scratch.site_loglikelihoods(work),
            )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_threads=st.integers(2, 8),
    )
    def test_threaded_and_blocked_match_serial(self, seed, n_threads):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(seed % 2**31 + 1))
        rng = RAxMLRandom(seed + 3)
        _random_moves(tree, rng, 3)
        for rm in _rate_models(_PAL.n_patterns).values():
            serial = LikelihoodEngine(_PAL, _MODEL, rm)
            expected = serial.loglikelihood(tree)
            threaded = LikelihoodEngine(
                _PAL, _MODEL, rm, pool=VirtualThreadPool(n_threads),
            )
            blocked = LikelihoodEngine(
                _PAL, _MODEL, rm, kernel_class=TinyBlocked, clv_cache=True,
                pool=VirtualThreadPool(n_threads),
            )
            assert threaded.loglikelihood(tree) == expected
            assert blocked.loglikelihood(tree) == expected


def _handmade_pal(*rows: str):
    """A 4-taxon hand alignment with very few patterns."""
    from repro.seq.alignment import Alignment
    from repro.seq.patterns import compress_alignment

    return compress_alignment(Alignment.from_sequences(list(zip("abcd", rows))))


class TestDegenerateChunks:
    """Satellite: more threads than patterns.  The surplus workers are
    priced (they wait at every barrier) and nothing else: the kernels
    sweep the whole axis once, so results and op totals are serial's and
    no kernel call can land on zero patterns."""

    def test_subset_rate_model_empty_subset(self):
        rm = RateModel.cat(np.array([0.5, 1.5]), np.array([0, 1, 1, 0]))
        empty = subset_rate_model(rm, np.array([], dtype=np.intp))
        assert empty.pattern_to_cat.size == 0
        sliced = subset_rate_model(rm, slice(4, 4))
        assert sliced.pattern_to_cat.size == 0
        gamma = RateModel.gamma(0.8, 4)
        assert subset_rate_model(gamma, slice(0, 0)) is gamma

    @pytest.mark.parametrize("rm_name", ["gamma", "cat", "gamma+I"])
    def test_more_threads_than_patterns(self, rm_name, monkeypatch):
        pal = _handmade_pal("ACGTAC", "ACGTAA", "AGGTAG", "ACTTAC")
        m = pal.n_patterns
        rm = _rate_models(m)[rm_name]
        tree = yule_tree(pal.taxa, RAxMLRandom(9))
        span_sizes = []
        propagate_span = KernelBackend._propagate_span

        def watched(self, clv, p2c, pmats):
            span_sizes.append(len(clv))
            return propagate_span(self, clv, p2c, pmats)

        monkeypatch.setattr(KernelBackend, "_propagate_span", watched)

        def exercise(pool):
            engine = LikelihoodEngine(pal, _MODEL, rm, pool=pool)
            lnl = engine.loglikelihood(tree)
            down = engine.compute_down_partials(tree)
            up = engine.compute_up_partials(tree, down)
            edge = tree.internal_edges()[0]
            coef, exps, logscale = engine.edge_coefficients(
                down[id(edge)], up[id(edge)]
            )
            triple = engine.edge_lnl_and_derivatives(coef, exps, logscale, 0.2)
            assert np.isfinite(triple).all()
            return lnl, triple, engine.ops.snapshot()

        def pool(n_threads):
            return VirtualThreadPool(n_threads, LinearRegionTiming())

        serial = exercise(None)
        one_each, surplus = pool(m), pool(m + 5)
        assert exercise(one_each) == serial  # lnl and derivatives: bitwise
        assert exercise(surplus) == serial
        # Every kernel call swept all m patterns, none an empty slice ...
        assert span_sizes and set(span_sizes) == {m}
        # ... while the m + 5 lanes were charged: same regions, same
        # one-pattern bottleneck chunk, a dearer barrier.
        assert surplus.regions_executed == one_each.regions_executed > 0
        assert surplus.virtual_time > one_each.virtual_time

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_one_pattern_chunks_cannot_move_a_bit(self, kernel):
        """When thread counts this high still executed their chunks, a
        one-pattern chunk went through BLAS's matrix-vector routines and
        13 of these 89 site log-likelihoods came out an ulp off serial's
        (``tests/test_kernel_sweeps.py`` keeps that on record).  Run once
        per harness kernel name, both the one kernel, until ROADMAP 1(e)."""
        tree = yule_tree(_PAL.taxa, RAxMLRandom(5))
        cls = get_kernel(kernel)
        for rm in _rate_models(_PAL.n_patterns).values():
            serial = LikelihoodEngine(_PAL, _MODEL, rm, kernel_class=cls)
            want = serial.site_loglikelihoods(tree)
            for n_threads in (60, _PAL.n_patterns, _PAL.n_patterns + 5):
                threaded = LikelihoodEngine(
                    _PAL, _MODEL, rm, kernel_class=cls,
                    pool=VirtualThreadPool(n_threads),
                )
                got = threaded.site_loglikelihoods(tree)
                assert got.tobytes() == want.tobytes(), n_threads

    def test_surplus_threads_still_charge_region_time(self):
        pal = _handmade_pal("ACGT", "ACGA", "AGGT", "ACTT")
        tree = yule_tree(pal.taxa, RAxMLRandom(9))
        pool = VirtualThreadPool(pal.n_patterns + 3)
        engine = LikelihoodEngine(pal, _MODEL, RateModel.gamma(0.8, 4), pool=pool)
        engine.loglikelihood(tree)
        n_internal = sum(1 for n in tree.postorder() if not n.is_leaf)
        assert pool.regions_executed == n_internal + 1

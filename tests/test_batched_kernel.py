"""Tests for the level-batched kernel backend and its planner support.

Three concerns, matching the three pieces the backend adds:

* the plan's *level decomposition* is a valid topological schedule
  (children strictly before parents, union of levels == plan ops);
* ``BatchedKernel`` is bit-identical to ``ReferenceKernel`` across the
  full execution matrix — serial, virtual-threaded, CLV-cached, every
  rate-model family, both the per-level and fused-block regimes —
  including derivatives and exact ``OpCounter`` parity;
* the degenerate-input hardening of :class:`CLVCache` and the planner.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import test_dataset as _make_dataset
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels import (
    BatchedKernel,
    available_kernels,
    get_kernel,
)
from repro.likelihood.plan import CLVCache, plan_traversal
from repro.likelihood.brlen import optimize_branch_lengths
from repro.search.spr import SPRParams, spr_round
from repro.threads.pool import VirtualThreadPool
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom

_PAL, _ = _make_dataset(n_taxa=9, n_sites=180, seed=404)
_MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))


def _rate_models(m: int) -> dict[str, RateModel]:
    return {
        "gamma": RateModel.gamma(0.8, 4),
        "gamma+I": RateModel.gamma(0.8, 4, p_invariant=0.2),
        "cat": RateModel.cat(np.array([0.4, 1.0, 2.1]), np.arange(m) % 3),
    }


class TestLevelSchedule:
    """plan.levels() must be a valid topological batching of plan.ops."""

    def _check_schedule(self, plan) -> None:
        levels = plan.levels()
        # Union of levels is exactly the plan's op list (same objects).
        flat = [op for level in levels for op in level]
        assert len(flat) == len(plan.ops)
        assert {id(op) for op in flat} == {id(op) for op in plan.ops}
        assert all(level for level in levels), "no level may be empty"
        # Level 0 is exactly the tips; children sit strictly below parents.
        level_of = {
            id(op.node): d for d, level in enumerate(levels) for op in level
        }
        for d, level in enumerate(levels):
            for op in level:
                if op.node.is_leaf:
                    assert d == 0
                else:
                    assert d > 0
                    for child in op.node.children:
                        assert level_of[id(child)] < d

    @given(seed=st.integers(1, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_levels_are_topological(self, seed):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(seed))
        self._check_schedule(plan_traversal(tree))

    def test_cached_ops_keep_structural_depth(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(5))
        cache = CLVCache()
        engine = LikelihoodEngine(_PAL, _MODEL, clv_cache=cache)
        engine.loglikelihood(tree)  # warm the cache
        plan = plan_traversal(tree, cache)
        assert plan.n_cached > 0
        self._check_schedule(plan)

    def test_single_leaf_subtree_plan(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(5))
        leaf = next(n for n in tree.postorder() if n.is_leaf)
        plan = plan_traversal(tree, subtree=leaf)
        assert [[op.kind for op in lvl] for lvl in plan.levels()] == [["tip"]]

    def test_levels_cached_on_plan(self):
        tree = yule_tree(_PAL.taxa, RAxMLRandom(5))
        plan = plan_traversal(tree)
        assert plan.levels() is plan.levels()


class TestBatchedParity:
    """batched × {serial, threaded, clv-cache} against the reference."""

    def _trace(self, engine, tree):
        """A full workout: likelihood, both partial sweeps, edge math,
        Newton optimisation, and an SPR round.  Returns every number a
        caller could observe, for bitwise comparison."""
        tree = tree.copy()
        out = [engine.loglikelihood(tree)]
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        edge = tree.internal_edges()[0]
        d, u = down[id(edge)], up[id(edge)]
        coef, exps, logscale = engine.edge_coefficients(d, u)
        out.extend(engine.edge_lnl_and_derivatives(coef, exps, logscale, 0.17))
        coef2, exps2, ls2, first = engine.edge_coefficients_and_derivatives(
            d, u, 0.23
        )
        out.extend(first)
        out.append(np.asarray(coef2).copy())
        out.append(engine.site_loglikelihoods(tree))
        out.append(optimize_branch_lengths(engine, tree, passes=2))
        tree, spr_lnl, _ = spr_round(
            tree=tree, engine=engine,
            params=SPRParams(radius=2, min_improvement=0.01),
        )
        out.append(spr_lnl)
        out.append(engine.ops.snapshot())
        return out

    def _assert_equal_traces(self, a, b):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            if isinstance(x, np.ndarray):
                assert np.array_equal(x, y)
            else:
                assert x == y

    @pytest.mark.parametrize("rm_name", ["gamma", "gamma+I", "cat"])
    def test_serial_threaded_cached_bit_identical(self, rm_name):
        rm = _rate_models(_PAL.n_patterns)[rm_name]
        tree = yule_tree(_PAL.taxa, RAxMLRandom(31))
        ref = self._trace(LikelihoodEngine(_PAL, _MODEL, rm), tree)
        variants = {
            "serial": self._trace(
                LikelihoodEngine(_PAL, _MODEL, rm, kernel="batched"), tree
            ),
            "threaded": self._trace(
                LikelihoodEngine(
                    _PAL, _MODEL, rm, kernel="batched", pool=VirtualThreadPool(3),
                ),
                tree,
            ),
        }
        for name, trace in variants.items():
            self._assert_equal_traces(ref, trace)
        # With the CLV cache, compare against an equally-cached reference
        # (the engine-level cache legitimately skips charges on both).
        ref_cached = self._trace(
            LikelihoodEngine(_PAL, _MODEL, rm, clv_cache=True), tree
        )
        bat_cached = self._trace(
            LikelihoodEngine(
                _PAL, _MODEL, rm, kernel="batched", clv_cache=True
            ),
            tree,
        )
        self._assert_equal_traces(ref_cached, bat_cached)

    @pytest.mark.parametrize("max_entries", [5, 8])
    def test_op_totals_kernel_independent_under_eviction(self, max_entries):
        """One executor means one LRU put/get order: with a cache small
        enough to evict, CLV-cache traffic — and so op totals and virtual
        time — must not depend on the backend."""
        pal, _ = _make_dataset(n_taxa=10, n_sites=200, seed=7)
        tree = yule_tree(pal.taxa, RAxMLRandom(31))
        seen = []
        for kernel in ("reference", "batched"):
            engine = LikelihoodEngine(
                pal, _MODEL, kernel=kernel,
                clv_cache=CLVCache(max_entries=max_entries),
            )
            work = tree.copy()
            lnl = optimize_branch_lengths(engine, work, passes=2)
            _, spr_lnl, _ = spr_round(
                tree=work, engine=engine,
                params=SPRParams(radius=3, min_improvement=0.01),
            )
            assert engine.clv_cache.evictions > 0
            seen.append(
                (lnl, spr_lnl, engine.ops.snapshot(), engine.clv_cache.stats())
            )
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("rm_name", ["gamma", "gamma+I"])
    def test_fused_block_regime_bit_identical(self, rm_name, monkeypatch):
        """Force the fused block pipeline onto the small alignment (odd
        block length, so partial blocks are exercised too)."""
        monkeypatch.setattr(BatchedKernel, "fuse_min_patterns", 1)
        monkeypatch.setattr(BatchedKernel, "fuse_block", 13)
        rm = _rate_models(_PAL.n_patterns)[rm_name]
        tree = yule_tree(_PAL.taxa, RAxMLRandom(37))
        ref = self._trace(LikelihoodEngine(_PAL, _MODEL, rm), tree)
        fused = self._trace(
            LikelihoodEngine(_PAL, _MODEL, rm, kernel="batched"), tree
        )
        self._assert_equal_traces(ref, fused)
        fused_threaded = self._trace(
            LikelihoodEngine(
                _PAL, _MODEL, rm, kernel="batched", pool=VirtualThreadPool(4),
            ),
            tree,
        )
        self._assert_equal_traces(ref, fused_threaded)

    def test_fused_one_pattern_tail_joins_the_block_before_it(self, monkeypatch):
        """``n_patterns % fuse_block == 1``: a one-pattern last block would
        take BLAS's matrix-vector routines, which round differently from
        the matrix-matrix ones the reference's whole-axis product gets."""
        monkeypatch.setattr(BatchedKernel, "fuse_min_patterns", 1)
        rm = RateModel.gamma(0.8, 4)
        monkeypatch.setattr(BatchedKernel, "fuse_block", _PAL.n_patterns - 1)
        for seed in (1, 2, 3):
            tree = yule_tree(_PAL.taxa, RAxMLRandom(seed))
            sweeps = []  # per kernel: (down partials, up partials)
            for kernel in ("reference", "batched"):
                engine = LikelihoodEngine(_PAL, _MODEL, rm, kernel=kernel)
                down = engine.compute_down_partials(tree)
                sweeps.append((down, engine.compute_up_partials(tree, down)))
            for ref, fused in zip(*sweeps):
                assert ref.keys() == fused.keys()
                for key in ref:
                    assert ref[key].clv.tobytes() == fused[key].clv.tobytes()
                    assert ref[key].logscale.tobytes() == fused[key].logscale.tobytes()

    def test_more_threads_than_patterns(self):
        pal, _ = _make_dataset(n_taxa=4, n_sites=3, seed=77)
        tree = yule_tree(pal.taxa, RAxMLRandom(3))
        expected = LikelihoodEngine(pal, _MODEL).loglikelihood(tree)
        threaded = LikelihoodEngine(
            pal, _MODEL, kernel="batched", pool=VirtualThreadPool(8),
        )
        assert threaded.loglikelihood(tree) == expected

    def test_registry_lists_batched(self):
        assert set(available_kernels()) >= {"reference", "batched"}
        assert get_kernel("batched") is BatchedKernel


class TestCLVCacheHardening:
    def test_zero_entries_disables_without_error(self):
        cache = CLVCache(max_entries=0)
        assert len(cache) == 0
        assert not cache.probe(123)
        cache.put(123, object())
        assert len(cache) == 0
        assert cache.get(123) is None
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["evictions"] == 0
        assert stats["hits"] == 0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CLVCache(max_entries=-1)

    def test_zero_entry_cache_engine_runs(self):
        """An engine over a disabled cache behaves like no cache at all."""
        tree = yule_tree(_PAL.taxa, RAxMLRandom(9))
        plain = LikelihoodEngine(_PAL, _MODEL).loglikelihood(tree)
        disabled = LikelihoodEngine(
            _PAL, _MODEL, clv_cache=CLVCache(max_entries=0)
        )
        assert disabled.loglikelihood(tree) == plain
        assert disabled.clv_cache.stats()["entries"] == 0

    def test_planned_get_reclassifies_probe_hit(self):
        """A planner probe-hit that is gone by execution time must end up
        counted as one miss, not one hit plus one miss."""
        cache = CLVCache(max_entries=4)
        cache.put(1, object())
        assert cache.probe(1)  # planner counts a hit
        del cache._store[1]  # evicted between planning and execution
        assert cache.get(1, planned=True) is None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)

    def test_stats_probes_balance(self):
        cache = CLVCache(max_entries=2)
        cache.put(1, object())
        probes = 0
        for sig in (1, 2, 1, 3):
            cache.probe(sig)
            probes += 1
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == probes

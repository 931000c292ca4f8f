"""Tests for the kernel's level execution and its planner support.

Four concerns:

* the plan's *level decomposition* is a valid topological schedule
  (children strictly before parents, union of levels == plan ops);
* the kernel against ``tests/oracle.py``, which shares no step with it:
  log-likelihood, both branch derivatives and the lazy-SPR insertion
  score under Γ, Γ+I and CAT, in the per-level flow and in the fused
  block regime, to ``rel <= 1e-9``;
* the kernel's executions against each other, bit for bit: serial,
  virtual-threaded and CLV-cached; the fused block regime against the
  per-level flow, on the engine and on a whole analysis; op totals and
  CLV-cache traffic under eviction whatever cuts the pattern axis;
* the degenerate-input hardening of :class:`CLVCache` and the planner.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import test_dataset as _make_dataset
from repro.hybrid import HybridConfig, run_hybrid_analysis
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels import (
    BatchedKernel,
    KernelBackend,
    available_kernels,
    get_kernel,
)
from repro.likelihood.plan import CLVCache, plan_traversal
from repro.likelihood.brlen import optimize_branch_lengths
from repro.search.comprehensive import ComprehensiveConfig
from repro.search.searches import StageParams
from repro.search.spr import SPRParams, spr_round
from repro.seq.alignment import Alignment
from repro.seq.patterns import compress_alignment
from repro.threads.pool import VirtualThreadPool
from repro.tree.newick import parse_newick
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom
from tests import oracle
from tests.conftest import assert_bit_identical
from tests.test_likelihood_engine import QUARTET, clade_of, masks_of
from tests.test_traversal_plan import TinyBlocked

_PAL, _ = _make_dataset(n_taxa=9, n_sites=180, seed=404)
_MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))


def _rate_models(m: int) -> dict[str, RateModel]:
    return {
        "gamma": RateModel.gamma(0.8, 4),
        "gamma+I": RateModel.gamma(0.8, 4, p_invariant=0.2),
        "cat": RateModel.cat(np.array([0.4, 1.0, 2.1]), np.arange(m) % 3),
    }


def _force_fused(monkeypatch, block: int) -> None:
    """Run the fused block pipeline at any Γ pattern count, ``block``
    patterns a block."""
    monkeypatch.setattr(KernelBackend, "fuse_min_patterns", 1)
    monkeypatch.setattr(KernelBackend, "fuse_block", block)


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


#: Five taxa: a quartet for the insertion score (E pruned), and the same
#: taxa on one tree for the log-likelihood and the branch derivatives.
_ORACLE_ALN = [
    ("A", "ACGTTACGAAGTC"), ("B", "ACGTAACTRAGCC"), ("C", "AGGATCCGAAGTA"),
    ("D", "ATGTTCAGCA-TG"), ("E", "ACCTTAGGAAGTT"),
]
_FIVE_TAXA = "((A:0.12,B:0.3):0.08,(C:0.25,E:0.2):0.1,D:0.4);"


@pytest.mark.parametrize("rm_name,regime", [
    ("gamma", "flow"), ("gamma", "fused"),
    ("gamma+I", "flow"), ("gamma+I", "fused"),
    ("cat", "flow"),
])
class TestKernelAgainstTheOracle:
    """The one kernel against ``tests/oracle.py``, to ``rel <= 1e-9``:
    in its per-level flow, and with the fused block pipeline forced onto
    these few patterns (3-pattern blocks, a ragged last one).  CAT runs
    the flow only."""

    @staticmethod
    def setup(monkeypatch, rm_name, regime):
        if regime == "fused":
            _force_fused(monkeypatch, 3)
        pal = compress_alignment(Alignment.from_sequences(_ORACLE_ALN))
        rm = _rate_models(pal.n_patterns)[rm_name]
        engine = LikelihoodEngine(pal, _MODEL, rm)
        assert engine.kernel._fused == (regime == "fused")
        model = (_MODEL.rates, _MODEL.freqs, rm.rates, rm.pattern_to_cat)
        return pal, rm, engine, model

    def test_lnl_and_derivatives(self, monkeypatch, rm_name, regime):
        pal, rm, engine, model = self.setup(monkeypatch, rm_name, regime)
        tree = parse_newick(_FIVE_TAXA, taxa=pal.taxa)
        want = oracle.tree_site_lnls(_FIVE_TAXA, masks_of(pal), *model, rm.p_invariant)
        assert list(engine.site_loglikelihoods(tree)) == pytest.approx(want, rel=1e-9)
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        for e in tree.edges():
            coef, exps, logscale = engine.edge_coefficients(down[id(e)], up[id(e)])
            for t in (0.05, 0.6):
                got = engine.edge_lnl_and_derivatives(coef, exps, logscale, t)
                expected = oracle.tree_edge_derivatives(
                    _FIVE_TAXA, masks_of(pal), pal.weights, clade_of(tree, e), t,
                    *model, rm.p_invariant,
                )
                assert got == pytest.approx(expected, rel=1e-9), (e.name, t)

    def test_insertion_score(self, monkeypatch, rm_name, regime):
        pal, rm, engine, model = self.setup(monkeypatch, rm_name, regime)
        tree = parse_newick(QUARTET, taxa=pal.taxa)
        pruned = parse_newick("(A:0.1,B:0.1,E:0.1);", taxa=pal.taxa).find_leaf("E")
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        sub = engine.compute_down_partials(tree, subtree=pruned)[id(pruned)]
        for e in tree.edges():
            for t_sub in (0.07, 0.9):
                score = engine.insertion_loglikelihood(
                    down[id(e)], up[id(e)], sub, e.length, t_sub
                )
                expected = oracle.insertion_lnl(
                    QUARTET, masks_of(pal), pal.weights, clade_of(tree, e), "E",
                    t_sub, *model, rm.p_invariant,
                )
                assert score == pytest.approx(expected, rel=1e-9), (e.name, t_sub)


class TestBatchedParity:
    """The kernel's executions against each other, bit for bit: serial,
    threaded and cached; fused blocks against the per-level flow."""

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
        """Threads are priced, never executed, so a threaded engine is
        the serial one; a cached engine is compared with a threaded
        cached one (the engine-level cache legitimately skips charges)."""
        rm = _rate_models(_PAL.n_patterns)[rm_name]
        tree = yule_tree(_PAL.taxa, RAxMLRandom(31))
        serial = self._trace(LikelihoodEngine(_PAL, _MODEL, rm), tree)
        threaded = self._trace(
            LikelihoodEngine(_PAL, _MODEL, rm, pool=VirtualThreadPool(3)), tree
        )
        self._assert_equal_traces(serial, threaded)
        cached = self._trace(LikelihoodEngine(_PAL, _MODEL, rm, clv_cache=True), tree)
        cached_threaded = self._trace(
            LikelihoodEngine(
                _PAL, _MODEL, rm, clv_cache=True, pool=VirtualThreadPool(3)
            ),
            tree,
        )
        self._assert_equal_traces(cached, cached_threaded)
        # Values do not depend on the cache either; charges do.
        self._assert_equal_traces(serial[:-1], cached[:-1])

    @pytest.mark.parametrize("max_entries", [5, 8])
    def test_op_totals_kernel_independent_under_eviction(self, max_entries):
        """One executor means one LRU put/get order: with a cache small
        enough to evict, CLV-cache traffic — and so op totals and virtual
        time — must not depend on how the kernel cuts the pattern axis
        (whole, or a 7-pattern tiling subclass)."""
        pal, _ = _make_dataset(n_taxa=10, n_sites=200, seed=7)
        tree = yule_tree(pal.taxa, RAxMLRandom(31))
        seen = []
        for kernel_class in (KernelBackend, TinyBlocked):
            engine = LikelihoodEngine(
                pal, _MODEL, kernel_class=kernel_class,
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
        block length, so partial blocks are exercised too) and hold it to
        the per-level flow."""
        rm = _rate_models(_PAL.n_patterns)[rm_name]
        tree = yule_tree(_PAL.taxa, RAxMLRandom(37))
        flow = self._trace(LikelihoodEngine(_PAL, _MODEL, rm), tree)
        _force_fused(monkeypatch, 13)
        fused = LikelihoodEngine(_PAL, _MODEL, rm)
        assert fused.kernel._fused
        self._assert_equal_traces(flow, self._trace(fused, tree))
        fused_threaded = self._trace(
            LikelihoodEngine(_PAL, _MODEL, rm, pool=VirtualThreadPool(4)), tree
        )
        self._assert_equal_traces(flow, fused_threaded)

    def test_fused_block_regime_whole_analysis(self, monkeypatch):
        """A whole 1 x 2 comprehensive analysis with the fused pipeline
        forced on equals the default flow's, timings included."""
        pal, _ = _make_dataset(n_taxa=6, n_sites=90, seed=301)
        config = HybridConfig(
            n_processes=1, n_threads=2,
            comprehensive=ComprehensiveConfig(
                n_bootstraps=2, use_cat=False,  # CAT never fuses
                stage_params=StageParams(
                    bootstrap_rounds=1, fast_rounds=1, slow_max_rounds=1,
                    thorough_max_rounds=2, brlen_passes=1,
                ),
            ),
        )
        flow = run_hybrid_analysis(pal, config)
        _force_fused(monkeypatch, 7)
        fused = run_hybrid_analysis(pal, config)
        assert_bit_identical(flow, fused, timings=True)

    def test_fused_one_pattern_tail_joins_the_block_before_it(self, monkeypatch):
        """``n_patterns % fuse_block == 1``: a one-pattern last block would
        take BLAS's matrix-vector routines, which round differently from
        the matrix-matrix ones the per-level flow's whole-axis product
        gets."""
        rm = RateModel.gamma(0.8, 4)
        for seed in (1, 2, 3):
            tree = yule_tree(_PAL.taxa, RAxMLRandom(seed))
            sweeps = []  # per regime: (down partials, up partials)
            for block in (None, _PAL.n_patterns - 1):
                if block is not None:
                    _force_fused(monkeypatch, block)
                engine = LikelihoodEngine(_PAL, _MODEL, rm)
                down = engine.compute_down_partials(tree)
                sweeps.append((down, engine.compute_up_partials(tree, down)))
            monkeypatch.undo()
            for flow, fused in zip(*sweeps):
                assert flow.keys() == fused.keys()
                for key in flow:
                    assert flow[key].clv.tobytes() == fused[key].clv.tobytes()
                    assert flow[key].logscale.tobytes() == fused[key].logscale.tobytes()

    def test_more_threads_than_patterns(self):
        pal, _ = _make_dataset(n_taxa=4, n_sites=3, seed=77)
        tree = yule_tree(pal.taxa, RAxMLRandom(3))
        expected = LikelihoodEngine(pal, _MODEL).loglikelihood(tree)
        threaded = LikelihoodEngine(pal, _MODEL, pool=VirtualThreadPool(8))
        assert threaded.loglikelihood(tree) == expected

    def test_registry_lists_batched(self):
        """``HybridConfig.kernel`` takes either name the benchmark harness
        passes, both the one kernel, and refuses any other."""
        assert set(available_kernels()) == {"reference", "batched"}
        assert get_kernel("batched") is BatchedKernel is KernelBackend
        for name in available_kernels():
            assert HybridConfig(1, 1, kernel=name).kernel == name
        with pytest.raises(ValueError, match="kernel"):
            HybridConfig(1, 1, kernel="fused")


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

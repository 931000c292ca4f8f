"""Tests for the virtual Pthreads layer (repro.threads)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.likelihood.brlen import optimize_branch_lengths
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.threads.partition import (
    chunk_sizes,
    contiguous_chunks,
    cyclic_assignment,
    imbalance,
    weighted_chunks,
)
from repro.threads.pool import VirtualThreadPool
from repro.threads.timing import LinearRegionTiming, ZeroTiming


class TestPartition:
    def test_chunk_sizes_sum(self):
        assert sum(chunk_sizes(17, 4)) == 17

    def test_chunk_sizes_balance(self):
        sizes = chunk_sizes(17, 4)
        assert max(sizes) - min(sizes) <= 1

    def test_more_threads_than_items(self):
        sizes = chunk_sizes(3, 8)
        assert sum(sizes) == 3
        assert sizes.count(0) == 5

    def test_contiguous_chunks_cover(self):
        chunks = contiguous_chunks(10, 3)
        covered = []
        for c in chunks:
            covered.extend(range(c.start, c.stop))
        assert covered == list(range(10))

    def test_cyclic_assignment_partition(self):
        idx = cyclic_assignment(11, 3)
        merged = np.sort(np.concatenate(idx))
        assert merged.tolist() == list(range(11))
        assert idx[0].tolist() == [0, 3, 6, 9]

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_sizes(5, 0)
        with pytest.raises(ValueError):
            chunk_sizes(-1, 2)
        with pytest.raises(ValueError):
            cyclic_assignment(5, 0)

    @settings(max_examples=30)
    @given(st.integers(0, 500), st.integers(1, 64))
    def test_partition_properties(self, n, t):
        sizes = chunk_sizes(n, t)
        assert len(sizes) == t
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestWeightedChunks:
    def test_uniform_costs_match_contiguous(self):
        costs = np.ones(12)
        assert weighted_chunks(costs, 4) == contiguous_chunks(12, 4)

    def test_skewed_costs_rebalanced(self):
        # First half is 10x as expensive.
        costs = np.concatenate([np.full(50, 10.0), np.full(50, 1.0)])
        chunks = weighted_chunks(costs, 4)
        assert imbalance(costs, chunks) < 1.15
        # A plain equal-count split is far worse.
        assert imbalance(costs, contiguous_chunks(100, 4)) > 1.5

    def test_covers_everything_in_order(self):
        costs = np.arange(1, 30, dtype=float)
        chunks = weighted_chunks(costs, 5)
        assert chunks[0].start == 0
        assert chunks[-1].stop == 29
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start

    def test_zero_total_falls_back(self):
        chunks = weighted_chunks(np.zeros(10), 3)
        assert sum(c.stop - c.start for c in chunks) == 10

    def test_empty(self):
        assert weighted_chunks(np.array([]), 3) == [slice(0, 0)] * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_chunks(np.ones(5), 0)
        with pytest.raises(ValueError):
            weighted_chunks(-np.ones(5), 2)
        with pytest.raises(ValueError):
            weighted_chunks(np.ones((2, 2)), 2)

    @settings(max_examples=30)
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=80),
           st.integers(1, 16))
    def test_cover_property(self, costs, t):
        c = np.array(costs)
        chunks = weighted_chunks(c, t)
        assert len(chunks) == t
        covered = []
        for sl in chunks:
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(len(costs)))

    def test_imbalance_of_perfect_split(self):
        assert imbalance(np.ones(8), contiguous_chunks(8, 4)) == 1.0


class TestTiming:
    def test_zero_timing(self):
        assert ZeroTiming().region_seconds([10, 10], 4) == 0.0

    def test_linear_timing_computes(self):
        t = LinearRegionTiming(per_pattern_second=1e-3, sync_quadratic=1e-3)
        # max chunk 10, 2 cats -> 0.02 compute; 2 threads -> 0.004 sync.
        assert t.region_seconds([10, 8], 2) == pytest.approx(0.024)

    def test_single_thread_no_sync(self):
        t = LinearRegionTiming(per_pattern_second=1e-3, sync_quadratic=1.0)
        assert t.region_seconds([10], 1) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearRegionTiming(per_pattern_second=-1)
        with pytest.raises(ValueError):
            LinearRegionTiming().region_seconds([10], 0)


class TestPool:
    def test_run_region_executes_chunks(self):
        pool = VirtualThreadPool(3)
        results = pool.run_region(lambda sl: sl.stop - sl.start, 10)
        assert sum(r for r in results if r) == 10

    def test_empty_chunks_give_none(self):
        pool = VirtualThreadPool(8)
        results = pool.run_region(lambda sl: 1, 3)
        assert results.count(None) == 5

    def test_virtual_time_accumulates(self):
        pool = VirtualThreadPool(2, LinearRegionTiming(1e-3, 0.0))
        pool.run_region(lambda sl: None, 10)
        pool.run_region(lambda sl: None, 10)
        assert pool.virtual_time == pytest.approx(2 * 5 * 1e-3)
        assert pool.regions_executed == 2

    def test_charge_regions_bulk(self):
        pool = VirtualThreadPool(2, LinearRegionTiming(1e-3, 0.0))
        pool.charge_regions(10, 10, 1)
        assert pool.virtual_time == pytest.approx(10 * 5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualThreadPool(0)
        with pytest.raises(ValueError):
            VirtualThreadPool(2).charge_regions(-1, 10, 1)


class TestThreadedEngineEquivalence:
    @pytest.fixture()
    def serial(self, small_pal, gtr_model):
        return LikelihoodEngine(small_pal, gtr_model, RateModel.gamma(0.8, 4))

    @pytest.mark.parametrize("n_threads", [1, 2, 3, 7, 16])
    def test_loglikelihood_matches_serial(self, small_pal, gtr_model, serial, tiny_tree, n_threads):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(12))
        pool = VirtualThreadPool(n_threads)
        threaded = LikelihoodEngine(
            small_pal, gtr_model, RateModel.gamma(0.8, 4), pool=pool,
        )
        assert threaded.loglikelihood(tree) == pytest.approx(
            serial.loglikelihood(tree), abs=1e-9
        )

    def test_site_loglikelihoods_match(self, small_pal, gtr_model, serial):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(12))
        pool = VirtualThreadPool(4)
        threaded = LikelihoodEngine(
            small_pal, gtr_model, RateModel.gamma(0.8, 4), pool=pool,
        )
        assert np.allclose(
            threaded.site_loglikelihoods(tree), serial.site_loglikelihoods(tree)
        )

    def test_branch_optimisation_matches_serial(self, small_pal, gtr_model, serial):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        t1 = yule_tree(small_pal.taxa, RAxMLRandom(12))
        t2 = t1.copy()
        pool = VirtualThreadPool(4)
        threaded = LikelihoodEngine(
            small_pal, gtr_model, RateModel.gamma(0.8, 4), pool=pool,
        )
        l_serial = optimize_branch_lengths(serial, t1, passes=2)
        l_threaded = optimize_branch_lengths(threaded, t2, passes=2)
        assert l_threaded == pytest.approx(l_serial, abs=1e-6)

    def test_cat_mode_matches_serial(self, small_pal, gtr_model):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(12))
        p2c = np.arange(small_pal.n_patterns) % 3
        rm = RateModel.cat(np.array([0.3, 1.0, 2.0]), p2c)
        serial = LikelihoodEngine(small_pal, gtr_model, rm)
        threaded = LikelihoodEngine(small_pal, gtr_model, rm, pool=VirtualThreadPool(5))
        assert threaded.loglikelihood(tree) == pytest.approx(
            serial.loglikelihood(tree), abs=1e-9
        )

    def test_insertion_loglikelihood_matches(self, small_pal, gtr_model, serial):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(12))
        pool = VirtualThreadPool(3)
        threaded = LikelihoodEngine(
            small_pal, gtr_model, RateModel.gamma(0.8, 4), pool=pool,
        )
        leaf = tree.find_leaf(small_pal.taxa[0])
        other = tree.find_leaf(small_pal.taxa[3])

        sd = serial.compute_down_partials(tree)
        su = serial.compute_up_partials(tree, sd)
        expected = serial.insertion_loglikelihood(
            sd[id(other)], su[id(other)], sd[id(leaf)], other.length, leaf.length
        )
        td = threaded.compute_down_partials(tree)
        tu = threaded.compute_up_partials(tree, td)
        got = threaded.insertion_loglikelihood(
            td[id(other)],
            tu[id(other)],
            td[id(leaf)],
            other.length,
            leaf.length,
        )
        assert got == pytest.approx(expected, abs=1e-9)

    def test_region_accounting_scales_with_tree(self, small_pal, gtr_model):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(12))
        pool = VirtualThreadPool(2, LinearRegionTiming())
        threaded = LikelihoodEngine(
            small_pal, gtr_model, RateModel.gamma(0.8, 4), pool=pool,
        )
        threaded.loglikelihood(tree)
        n_internal = sum(1 for n in tree.postorder() if not n.is_leaf)
        assert pool.regions_executed == n_internal + 1

    def test_timing_shape_optimal_threads(self, small_pal, gtr_model):
        """With quadratic sync costs, moderate thread counts beat both
        extremes for small pattern counts (the paper's core tradeoff)."""
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(12))
        times = {}
        for t in (1, 2, 16):
            pool = VirtualThreadPool(t, LinearRegionTiming(1e-6, 2e-6))
            engine = LikelihoodEngine(
                small_pal, gtr_model, RateModel.gamma(0.8, 4), pool=pool,
            )
            engine.loglikelihood(tree)
            times[t] = pool.virtual_time
        assert times[2] < times[1]
        assert times[2] < times[16]

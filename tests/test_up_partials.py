"""The restricted up sweep and the one-price region charge.

``compute_up_partials(tree, down, needed)`` expands only the ancestors of
``needed``, each whole, so every up partial it returns must be the full
sweep's to the bit; every other node is a ``KeyError``; and it charges
the full sweep's ops and parallel regions, so op totals and virtual
clocks do not depend on which nodes a caller reads.  Covered under Γ,
Γ+I, CAT and the fused block regime, on 6, 24 and 150 taxa.

``VirtualThreadPool.charge_regions(n, ...)`` prices one region and adds
it ``n`` times: the clock bits, region count and recorder spans of ``n``
:meth:`~VirtualThreadPool.charge_region` calls.

``newton_branch_length`` refuses a non-finite first evaluation.
"""

import numpy as np
import pytest

from repro.datasets import test_dataset as make_dataset
from repro.likelihood.brlen import newton_branch_length, optimize_edge
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels import KernelBackend
from repro.obs.recorder import Recorder, recording
from repro.search.spr import edges_within_radius
from repro.threads.partition import chunk_sizes
from repro.threads.pool import VirtualThreadPool
from repro.threads.timing import LinearRegionTiming
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom

MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))
SITES = {6: 90, 24: 200, 150: 60}


class SmallBlocks(KernelBackend):
    """The fused block pipeline at any Γ pattern count, 16 patterns a
    block (the real threshold is covered by ``TestRealFusedThreshold``)."""

    fuse_min_patterns = 1
    fuse_block = 16


def _rate_model(regime: str, m: int) -> RateModel:
    if regime == "cat":
        return RateModel.cat(np.array([0.4, 1.0, 2.1]), np.arange(m) % 3)
    if regime == "gamma+I":
        return RateModel.gamma(0.8, 4, p_invariant=0.2)
    return RateModel.gamma(0.8, 4)


def _engine(pal, regime, pool=None) -> LikelihoodEngine:
    kernel = SmallBlocks if regime == "fused" else KernelBackend
    return LikelihoodEngine(
        pal, MODEL, _rate_model(regime, pal.n_patterns), kernel_class=kernel, pool=pool
    )


def _bits(part) -> tuple[bytes, bytes]:
    return np.ascontiguousarray(part.clv).tobytes(), part.logscale.tobytes()


def _needed_sets(tree) -> dict[str, list]:
    """What the searches read: one edge, a radius-2 SPR candidate set,
    a joint and its children, a leaf, and every edge."""
    edges = tree.edges()
    inner = [e for e in edges if not e.is_leaf]
    leaves = [e for e in edges if e.is_leaf]
    deep = max(edges, key=lambda v: len(list(_ancestors(v))))
    return {
        "one-edge": [inner[len(inner) // 2]],
        "radius-2": edges_within_radius(tree, deep, 2),
        "joint": [deep.parent, *deep.parent.children] if deep.parent.parent else [deep],
        "leaf": [leaves[-1]],
        "every-edge": edges,
    }


def _ancestors(v):
    while v.parent is not None:
        v = v.parent
        yield v


@pytest.fixture(scope="module", params=sorted(SITES))
def data(request):
    n_taxa = request.param
    pal, true_tree = make_dataset(n_taxa=n_taxa, n_sites=SITES[n_taxa], seed=70 + n_taxa)
    return pal, true_tree, yule_tree(pal.taxa, RAxMLRandom(4711 + n_taxa))


@pytest.mark.parametrize("regime", ["gamma", "gamma+I", "cat", "fused"])
class TestRestrictedSweep:
    def test_returns_the_full_sweeps_bits(self, data, regime):
        pal, *trees = data
        for tree in trees:
            full_engine = _engine(pal, regime)
            full = full_engine.compute_up_partials(tree, full_engine.compute_down_partials(tree))
            for name, needed in _needed_sets(tree).items():
                # A fresh engine: nothing served from a warm contribution LRU.
                engine = _engine(pal, regime)
                up = engine.compute_up_partials(
                    tree, engine.compute_down_partials(tree), needed
                )
                assert {id(v) for v in needed} <= set(up), name
                assert set(up) <= set(full), name
                for key, part in up.items():
                    assert _bits(part) == _bits(full[key]), (name, regime)

    def test_left_out_node_is_a_key_error(self, data, regime):
        pal, tree, _ = data
        engine = _engine(pal, regime)
        needed = _needed_sets(tree)["leaf"]
        up = engine.compute_up_partials(tree, engine.compute_down_partials(tree), needed)
        outside = [v for v in tree.edges() if id(v) not in up]
        assert outside, "a one-leaf sweep must leave nodes out"
        with pytest.raises(KeyError):
            up[id(outside[0])]
        none = engine.compute_up_partials(tree, engine.compute_down_partials(tree), [])
        assert none == {}

    def test_charges_the_full_sweep(self, data, regime):
        pal, tree, _ = data
        marks = []
        for needed in (None, *_needed_sets(tree).values(), []):
            pool = VirtualThreadPool(3, LinearRegionTiming(3.1e-7, 1.7e-6))
            engine = _engine(pal, regime, pool)
            pool.clock.advance(0.1)
            engine.compute_up_partials(tree, engine.compute_down_partials(tree), needed)
            marks.append((engine.charges(), pool.clock.now.hex()))
        assert len(set(marks)) == 1, marks


class TestRealFusedThreshold:
    """The default kernel above its own ``fuse_min_patterns``."""

    def test_restricted_sweep_bits(self):
        pal, tree = make_dataset(n_taxa=24, n_sites=6400, seed=94)
        assert pal.n_patterns >= KernelBackend.fuse_min_patterns
        engine = LikelihoodEngine(pal, MODEL, RateModel.gamma(0.8, 4))
        down = engine.compute_down_partials(tree)
        full = engine.compute_up_partials(tree, down)
        needed = _needed_sets(tree)["radius-2"]
        fresh = LikelihoodEngine(pal, MODEL, RateModel.gamma(0.8, 4))
        up = fresh.compute_up_partials(tree, fresh.compute_down_partials(tree), needed)
        assert len(up) < len(full)
        for key, part in up.items():
            assert _bits(part) == _bits(full[key])


class TestOptimizeEdgeRestricted:
    def test_same_length_and_charges_as_the_full_sweep(self, tiny_pal, tiny_tree):
        results = []
        for restricted in (True, False):
            tree = tiny_tree.copy()
            pool = VirtualThreadPool(2, LinearRegionTiming())
            engine = LikelihoodEngine(tiny_pal, MODEL, pool=pool)
            edge = tree.internal_edges()[0]
            down = engine.compute_down_partials(tree)
            up = None if restricted else engine.compute_up_partials(tree, down)
            t = optimize_edge(engine, tree, edge, down=down, up=up)
            results.append((t.hex(), engine.charges(), pool.clock.now.hex()))
        assert results[0] == results[1]


class TestChargeRegions:
    N = 7

    def _pool(self):
        pool = VirtualThreadPool(3, LinearRegionTiming(1.3e-7, 2.9e-6))
        pool.clock.advance(0.1)
        return pool

    def test_equals_the_loop_where_dt_times_n_does_not(self):
        sizes = chunk_sizes(100, 3)
        bulk, loop = self._pool(), self._pool()
        dt = bulk.timing.region_seconds(sizes, 4)
        t = 0.1
        for _ in range(self.N):
            t += dt
        assert t != 0.1 + dt * self.N, "pick a dt where the two round apart"
        bulk.charge_regions(self.N, 100, 4)
        for _ in range(self.N):
            loop.charge_region(sizes, 4)
        assert bulk.clock.now.hex() == loop.clock.now.hex() == t.hex()
        assert bulk.regions_executed == loop.regions_executed == self.N

    @pytest.mark.parametrize("batch_limit", [1, 64])
    def test_records_every_region_as_the_loop_does(self, batch_limit):
        sizes = chunk_sizes(100, 3)
        recorded = []
        for bulk in (True, False):
            pool = self._pool()
            rec = Recorder(clock=pool.clock, n_threads=3, region_batch_limit=batch_limit)
            with recording(rec):
                pool.charge_regions(2, 100, 4)  # the price is memoised from here
                if bulk:
                    pool.charge_regions(self.N, 100, 4)
                else:
                    for _ in range(self.N):
                        pool.charge_region(sizes, 4)
            recorded.append((rec.export_events(), dict(rec.metrics.counters)))
        assert recorded[0] == recorded[1]
        if batch_limit == 1:
            spans = [e for e in recorded[0][0] if e["cat"] == "kernel"]
            assert len(spans) == 3 * (self.N + 2)


class TestNewtonRefusesNonFinite:
    def test_poisoned_partial_raises(self, tiny_pal, tiny_tree):
        engine = LikelihoodEngine(tiny_pal, MODEL)
        tree = tiny_tree.copy()
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        edge = tree.internal_edges()[0]
        poisoned = down[id(edge)]
        clv = np.array(poisoned.clv)
        clv[0] = np.nan
        coef, exps, logscale = engine.edge_coefficients(
            type(poisoned)(clv, poisoned.logscale), up[id(edge)]
        )
        with pytest.raises(ValueError, match="not finite"):
            newton_branch_length(engine, coef, exps, logscale, edge.length)

    def test_finite_first_evaluation_still_runs(self, tiny_pal, tiny_tree):
        engine = LikelihoodEngine(tiny_pal, MODEL)
        tree = tiny_tree.copy()
        t = optimize_edge(engine, tree, tree.internal_edges()[0])
        assert np.isfinite(t)

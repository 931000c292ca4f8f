"""Tests for the specialised likelihood kernels.

The tip-case kernel (16-entry gather tables) and the rate-model subset
helper must be exactly equivalent to their generic counterparts.
"""

import numpy as np
import pytest

from repro.likelihood.engine import LikelihoodEngine, RateModel, subset_rate_model
from repro.likelihood.gtr import GTRModel
from repro.seq.patterns import PatternAlignment
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom


@pytest.fixture()
def engine(small_pal, gtr_model):
    return LikelihoodEngine(small_pal, gtr_model, RateModel.gamma(0.8, 4))


def _tip_contrib(engine, t: float, masks: np.ndarray) -> np.ndarray:
    """A tip's contribution across a branch of length ``t`` as a level
    computes it: a gather from the 16-mask table."""
    return engine.kernel.level_contribs([(0, t, masks)])[0]


class TestTipKernel:
    def test_matches_generic_propagate_gamma(self, engine, small_pal):
        fast = _tip_contrib(engine, 0.27, small_pal.patterns[0])
        generic = engine.kernel.propagate(engine.kernel.pmatrices(0.27), engine.tip_clv(0))
        assert np.allclose(fast, generic, atol=1e-14)

    def test_matches_generic_propagate_cat(self, small_pal, gtr_model):
        p2c = np.arange(small_pal.n_patterns) % 3
        engine = LikelihoodEngine(
            small_pal, gtr_model, RateModel.cat(np.array([0.4, 1.0, 2.1]), p2c)
        )
        fast = _tip_contrib(engine, 0.15, small_pal.patterns[2])
        generic = engine.kernel.propagate(engine.kernel.pmatrices(0.15), engine.tip_clv(2))
        assert np.allclose(fast, generic, atol=1e-14)

    def test_ambiguous_tips_handled(self, gtr_model):
        """N/gap/partial-ambiguity masks go through the same table."""
        from repro.seq.alignment import Alignment
        from repro.seq.patterns import compress_alignment
        from repro.tree.newick import parse_newick

        pal = compress_alignment(Alignment.from_sequences(
            [("a", "ANR-"), ("b", "ACGT"), ("c", "MKSW")]
        ))
        tree = parse_newick("(a:0.1,b:0.2,c:0.3);", taxa=pal.taxa)
        engine = LikelihoodEngine(pal, gtr_model, RateModel.gamma(1.0, 4))
        lnl = engine.loglikelihood(tree)
        assert np.isfinite(lnl)
        # Brute check of one column: 'A' vs 'A' vs 'M'(A|C).
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        for e in tree.edges():
            el = engine.edge_loglikelihood(e, e.length, down[id(e)], up[id(e)])
            assert el == pytest.approx(lnl, abs=1e-9)


class TestSubtreePartials:
    def test_subtree_down_matches_full(self, small_pal, gtr_model):
        """The subtree-restricted down pass must agree with the full pass
        on every node under the subtree root."""
        import numpy as np

        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(23))
        engine = LikelihoodEngine(small_pal, gtr_model, RateModel.gamma(0.8, 4))
        full = engine.compute_down_partials(tree)
        target = tree.internal_edges()[0]
        sub = engine.compute_down_partials(tree, subtree=target)
        for node_id, part in sub.items():
            assert np.allclose(part.clv, full[node_id].clv)
            assert np.allclose(part.logscale, full[node_id].logscale)

    def test_subtree_of_leaf(self, small_pal, gtr_model):
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(23))
        engine = LikelihoodEngine(small_pal, gtr_model)
        leaf = tree.leaves()[0]
        sub = engine.compute_down_partials(tree, subtree=leaf)
        assert set(sub) == {id(leaf)}

    def test_threaded_engine_subtree(self, small_pal, gtr_model):
        """The sharded engine returns the same unified partial map as the
        serial engine, and subtree partials are bit-identical."""
        from repro.threads.pool import VirtualThreadPool
        from repro.tree.random_trees import yule_tree
        from repro.util.rng import RAxMLRandom

        tree = yule_tree(small_pal.taxa, RAxMLRandom(23))
        serial = LikelihoodEngine(small_pal, gtr_model, RateModel.gamma(0.8, 4))
        threaded = LikelihoodEngine(
            small_pal, gtr_model, RateModel.gamma(0.8, 4), pool=VirtualThreadPool(3),
        )
        target = tree.internal_edges()[0]
        sub_s = serial.compute_down_partials(tree, subtree=target)
        sub_t = threaded.compute_down_partials(tree, subtree=target)
        part_s = sub_s[id(target)]
        part_t = sub_t[id(target)]
        assert part_t.clv.shape == part_s.clv.shape
        assert np.array_equal(part_t.clv, part_s.clv)
        assert np.array_equal(part_t.logscale, part_s.logscale)


class TestSubsetRateModel:
    def test_gamma_unchanged(self):
        rm = RateModel.gamma(0.7, 4)
        sub = subset_rate_model(rm, np.array([0, 2]))
        assert sub is rm

    def test_cat_sliced(self):
        rm = RateModel.cat(np.array([0.5, 1.5]), np.array([0, 1, 1, 0]))
        sub = subset_rate_model(rm, np.array([1, 3]))
        assert sub.pattern_to_cat.tolist() == [1, 0]
        assert np.array_equal(sub.rates, rm.rates)

    def test_subset_engine_matches_zero_weight_full(self, small_pal, gtr_model):
        """Dropping zero-weight patterns is exactly neutral."""
        tree = yule_tree(small_pal.taxa, RAxMLRandom(8))
        rng = RAxMLRandom(99)
        w = np.array([rng.next_int(3) for _ in range(small_pal.n_patterns)], dtype=float)
        full = LikelihoodEngine(small_pal, gtr_model, RateModel.gamma(0.8, 4), weights=w)
        active = np.flatnonzero(w > 0)
        sub_pal = PatternAlignment(
            small_pal.taxa, small_pal.patterns[:, active], w[active].astype(int),
            np.empty(0, dtype=np.intp),
        )
        sub = LikelihoodEngine(sub_pal, gtr_model, RateModel.gamma(0.8, 4),
                               weights=w[active])
        assert sub.loglikelihood(tree) == pytest.approx(
            full.loglikelihood(tree), abs=1e-9
        )

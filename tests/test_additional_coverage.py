"""Additional edge-case coverage across modules."""

import numpy as np
import pytest

from repro.likelihood.engine import LikelihoodEngine, RateModel, TipPartials
from repro.likelihood.gtr import GTRModel
from repro.tree.newick import NewickError, parse_newick, write_newick


class TestNewickEdgeCases:
    def test_whitespace_tolerated(self):
        t = parse_newick(" ( A : 0.1 , B : 0.2 , C : 0.3 ) ; ")
        assert t.n_leaves == 3
        assert t.find_leaf("A").length == pytest.approx(0.1)

    def test_internal_textual_label_ignored(self):
        t = parse_newick("((A:1,B:1)inner:1,C:1,D:1);")
        t.validate()
        assert all(
            e.support is None for e in t.internal_edges()
        )  # 'inner' is not a support value

    def test_numeric_internal_label_is_support(self):
        t = parse_newick("((A:1,B:1)87:1,C:1,D:1);")
        assert t.internal_edges()[0].support == pytest.approx(0.87)

    def test_deep_nesting(self):
        """A caterpillar of 60 taxa parses without recursion issues."""
        names = [f"x{i}" for i in range(60)]
        nwk = names[0]
        for nm in names[1:-2]:
            nwk = f"({nwk},{nm})"
        nwk = f"({nwk},{names[-2]},{names[-1]});"
        t = parse_newick(nwk)
        t.validate()
        assert t.n_leaves == 60

    def test_write_digits_control(self):
        t = parse_newick("(A:0.123456789,B:1,C:1);")
        assert ":0.12" in write_newick(t, digits=2)
        assert ":0.123456789" in write_newick(t, digits=9)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(NewickError):
            parse_newick("(A:1,B:1,C:1)")  # missing semicolon

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(NewickError):
            parse_newick("((A:1,B:1,C:1);")


class TestEngineWithers:
    @pytest.fixture()
    def engine(self, tiny_pal, gtr_model):
        return LikelihoodEngine(tiny_pal, gtr_model, RateModel.gamma(0.8, 4))

    def test_with_model_shares_ops(self, engine):
        e2 = engine.with_model(GTRModel.jc69())
        assert e2.ops is engine.ops
        assert e2.model.freqs == (0.25,) * 4
        assert engine.model.freqs != (0.25,) * 4

    def test_with_rate_model_keeps_weights(self, engine, tiny_pal):
        e2 = engine.with_rate_model(RateModel.single())
        assert np.array_equal(e2.weights, engine.weights)
        assert e2.n_categories == 1

    def test_edge_evals_counted(self, engine, tiny_tree):
        down = engine.compute_down_partials(tiny_tree)
        up = engine.compute_up_partials(tiny_tree, down)
        before = engine.ops.edge_evals
        e = tiny_tree.edges()[0]
        engine.edge_loglikelihood(e, e.length, down[id(e)], up[id(e)])
        assert engine.ops.edge_evals == before + 1

    def test_siblings_share_tip_partials(self, engine, tiny_pal, tiny_tree, monkeypatch):
        """Tip partials depend on the alignment (and CAT's categories)
        alone: a sibling engine builds none of them again, for the bits
        and ops of a fresh one."""
        engine.loglikelihood(tiny_tree)
        built = []
        real = TipPartials.__missing__
        monkeypatch.setattr(
            TipPartials, "__missing__", lambda self, i: built.append(i) or real(self, i)
        )
        sibling = engine.with_model(GTRModel.jc69()).with_weights(engine.weights * 2)
        fresh = LikelihoodEngine(
            tiny_pal, GTRModel.jc69(), engine.rate_model, weights=engine.weights * 2
        )
        before = engine.ops.snapshot()
        assert sibling.loglikelihood(tiny_tree) == fresh.loglikelihood(tiny_tree)
        assert sibling._tips is engine._tips
        assert sorted(built) == list(range(tiny_pal.n_taxa))  # the fresh engine's only
        after = engine.ops.snapshot()
        assert {k: after[k] - before[k] for k in after} == fresh.ops.snapshot()


class TestSPRTargeted:
    def test_spr_repairs_known_misplacement(self, small_pal, small_true_tree, gtr_model):
        """Move one leaf to a wrong place; one SPR round must repair it
        (or find something at least as good)."""
        from repro.search.spr import SPRParams, spr_round

        engine = LikelihoodEngine(small_pal, gtr_model, RateModel.gamma(0.8, 4))
        broken = small_true_tree.copy()
        leaf = broken.find_leaf(small_pal.taxa[0])
        targets = [
            e for e in broken.edges()
            if e is not leaf and leaf not in broken.subtree_leaves(e)
        ]
        broken.spr(leaf, targets[-1])
        broken.validate()
        true_lnl = engine.loglikelihood(small_true_tree)
        broken_lnl = engine.loglikelihood(broken)
        if broken_lnl >= true_lnl:  # the move happened to be neutral
            pytest.skip("random misplacement was not harmful")
        repaired, lnl, improved = spr_round(engine, broken, SPRParams(radius=10))
        assert improved
        assert lnl > broken_lnl

    def test_radius_one_restricts_candidates(self, tiny_pal, gtr_model, tiny_tree):
        from repro.search.spr import edges_within_radius

        origin = tiny_tree.internal_edges()[0]
        r1 = edges_within_radius(tiny_tree, origin, 1)
        r3 = edges_within_radius(tiny_tree, origin, 3)
        assert set(map(id, r1)) < set(map(id, r3))


class TestRegionTimingEdge:
    def test_machine_timing_empty_chunks(self):
        from repro.perfmodel.finegrain import MachineRegionTiming
        from repro.perfmodel.machines import MACHINES

        timing = MachineRegionTiming(MACHINES["dash"])
        assert timing.region_seconds([], 1) == 0.0

    def test_core_speed_scales_seconds(self):
        import dataclasses

        from repro.perfmodel.finegrain import MachineRegionTiming
        from repro.perfmodel.machines import MACHINES

        dash = MACHINES["dash"]
        slow = dataclasses.replace(dash, core_speed=0.5)
        t_fast = MachineRegionTiming(dash).region_seconds([100], 1)
        t_slow = MachineRegionTiming(slow).region_seconds([100], 1)
        assert t_slow == pytest.approx(2 * t_fast)

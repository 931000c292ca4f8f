"""Tests for the +I (proportion of invariant sites) model component."""

import numpy as np
import pytest

from repro.likelihood.brlen import optimize_branch_lengths
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.model_opt import optimize_model, optimize_p_invariant
from repro.seq.alignment import Alignment
from repro.seq.patterns import compress_alignment
from repro.tree.newick import parse_newick
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom


@pytest.fixture()
def setup(tiny_pal, gtr_model, tiny_tree):
    return tiny_pal, gtr_model, tiny_tree


class TestRateModelPlusI:
    def test_validation(self):
        with pytest.raises(ValueError):
            RateModel.gamma(1.0, 4, p_invariant=1.0)
        with pytest.raises(ValueError):
            RateModel.gamma(1.0, 4, p_invariant=-0.1)

    def test_with_p_invariant(self):
        rm = RateModel.gamma(0.7, 4)
        rm2 = rm.with_p_invariant(0.2)
        assert rm2.p_invariant == 0.2
        assert rm2.alpha == rm.alpha
        assert np.array_equal(rm2.rates, rm.rates)

    def test_cat_carries_p_invariant_through_subset(self):
        from repro.likelihood.engine import subset_rate_model

        rm = RateModel.cat(np.ones(2), np.array([0, 1, 0]), p_invariant=0.15)
        sub = subset_rate_model(rm, np.array([0, 2]))
        assert sub.p_invariant == 0.15


class TestPlusILikelihood:
    def test_zero_p_is_plain_gamma(self, setup):
        pal, model, tree = setup
        a = LikelihoodEngine(pal, model, RateModel.gamma(0.8, 4))
        b = LikelihoodEngine(pal, model, RateModel.gamma(0.8, 4, p_invariant=0.0))
        assert a.loglikelihood(tree) == b.loglikelihood(tree)

    def test_mixture_formula_on_constant_column(self, gtr_model):
        """For a single all-A column: L = (1-p)·L_var + p·pi_A exactly."""
        pal = compress_alignment(
            Alignment.from_sequences([("a", "A"), ("b", "A"), ("c", "A")])
        )
        tree = parse_newick("(a:0.2,b:0.2,c:0.2);", taxa=pal.taxa)
        p = 0.3
        plain = LikelihoodEngine(pal, gtr_model, RateModel.single())
        l_var = np.exp(plain.loglikelihood(tree))
        withi = LikelihoodEngine(
            pal, gtr_model, RateModel.gamma(1.0, 1, p_invariant=p)
        )
        expected = np.log((1 - p) * l_var + p * gtr_model.pi[0])
        assert withi.loglikelihood(tree) == pytest.approx(float(expected), abs=1e-10)

    def test_variable_column_gets_no_invariant_mass(self, gtr_model):
        """A column that cannot be constant: L = (1-p)·L_var only."""
        pal = compress_alignment(
            Alignment.from_sequences([("a", "A"), ("b", "C"), ("c", "G")])
        )
        tree = parse_newick("(a:0.2,b:0.2,c:0.2);", taxa=pal.taxa)
        p = 0.25
        plain = LikelihoodEngine(pal, gtr_model, RateModel.single())
        withi = LikelihoodEngine(
            pal, gtr_model, RateModel.gamma(1.0, 1, p_invariant=p)
        )
        assert withi.loglikelihood(tree) == pytest.approx(
            plain.loglikelihood(tree) + np.log(1 - p), abs=1e-10
        )

    def test_ambiguity_counts_as_constant_compatible(self, gtr_model):
        """a='A', b='N': the column is compatible with constant A."""
        pal = compress_alignment(
            Alignment.from_sequences([("a", "A"), ("b", "N"), ("c", "A")])
        )
        engine = LikelihoodEngine(
            pal, gtr_model, RateModel.gamma(1.0, 2, p_invariant=0.2)
        )
        assert engine._inv_lik[0] == pytest.approx(gtr_model.pi[0])

    def test_edge_machinery_consistent_with_plusi(self, setup):
        pal, model, tree = setup
        engine = LikelihoodEngine(pal, model, RateModel.gamma(0.8, 4, p_invariant=0.2))
        lnl = engine.loglikelihood(tree)
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        for e in tree.edges():
            el = engine.edge_loglikelihood(e, e.length, down[id(e)], up[id(e)])
            assert el == pytest.approx(lnl, abs=1e-8)

    def test_sumtable_derivatives_with_plusi(self, setup):
        pal, model, tree = setup
        engine = LikelihoodEngine(pal, model, RateModel.gamma(0.8, 4, p_invariant=0.2))
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        e = tree.edges()[1]
        coef, exps, ls = engine.edge_coefficients(down[id(e)], up[id(e)])
        t, eps = 0.25, 1e-5
        l0, g, h = engine.edge_lnl_and_derivatives(coef, exps, ls, t)
        lp, _, _ = engine.edge_lnl_and_derivatives(coef, exps, ls, t + eps)
        lm, _, _ = engine.edge_lnl_and_derivatives(coef, exps, ls, t - eps)
        assert l0 == pytest.approx(
            engine.edge_loglikelihood(e, t, down[id(e)], up[id(e)]), abs=1e-9
        )
        assert g == pytest.approx((lp - lm) / (2 * eps), rel=1e-3, abs=1e-6)
        assert h == pytest.approx((lp - 2 * l0 + lm) / eps**2, rel=1e-2, abs=1e-4)

    def test_brlen_optimisation_under_plusi(self, setup):
        pal, model, tree = setup
        engine = LikelihoodEngine(pal, model, RateModel.gamma(0.8, 4, p_invariant=0.15))
        work = tree.copy()
        before = engine.loglikelihood(work)
        after = optimize_branch_lengths(engine, work, passes=3)
        assert after >= before

    def test_threaded_engine_plusi_matches_serial(self, setup):
        from repro.threads.pool import VirtualThreadPool

        pal, model, tree = setup
        rm = RateModel.gamma(0.8, 4, p_invariant=0.2)
        serial = LikelihoodEngine(pal, model, rm)
        threaded = LikelihoodEngine(pal, model, rm, pool=VirtualThreadPool(3))
        assert threaded.loglikelihood(tree) == pytest.approx(
            serial.loglikelihood(tree), abs=1e-9
        )


class TestPlusIOptimisation:
    def test_recovers_invariant_signal(self):
        """Data simulated with invariant sites should prefer p > 0."""
        from repro.datasets import SimulationParams, simulate_alignment

        aln, true_tree = simulate_alignment(
            SimulationParams(n_taxa=8, n_sites=400, seed=90,
                             proportion_invariant=0.35)
        )
        pal = compress_alignment(aln)
        engine = LikelihoodEngine(
            pal, GTRModel.default(), RateModel.gamma(1.0, 4)
        )
        tree = true_tree.copy()
        optimize_branch_lengths(engine, tree, passes=3)
        base = engine.loglikelihood(tree)
        engine2, lnl2 = optimize_p_invariant(engine, tree)
        assert lnl2 >= base
        assert engine2.rate_model.p_invariant > 0.03

    def test_optimize_model_with_invariant_flag(self, setup):
        pal, model, tree = setup
        engine = LikelihoodEngine(pal, GTRModel.jc69(), RateModel.gamma(1.0, 4))
        engine2, lnl = optimize_model(
            engine, tree, rounds=1, optimize_invariant=True
        )
        assert lnl >= engine.loglikelihood(tree) - 1e-9
        assert engine2.rate_model.p_invariant >= 0.0

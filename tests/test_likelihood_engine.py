"""Tests for the pruning engine (repro.likelihood.engine).

The key guarantees: exact agreement with brute-force state enumeration,
consistency of the edge-likelihood machinery with the plain evaluation,
correct scaling behaviour on long chains, and CAT/gamma mode coherence.
"""

import ast
import inspect

import numpy as np
import pytest

from repro.likelihood.engine import LikelihoodEngine, OpCounter, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels import base as kernel_base
from repro.seq.alignment import Alignment
from repro.seq.patterns import compress_alignment
from repro.tree.newick import parse_newick
from tests import oracle


QUARTET = "((A:0.12,B:0.3):0.08,C:0.25,D:0.4);"


@pytest.fixture()
def quartet():
    aln = Alignment.from_sequences(
        [("A", "ACGTT"), ("B", "ACGTA"), ("C", "AGGAT"), ("D", "ATGTT")]
    )
    pal = compress_alignment(aln)
    return pal, parse_newick(QUARTET, taxa=pal.taxa)


def masks_of(pal) -> dict:
    """Each taxon's per-pattern state masks, as ``tests/oracle.py`` reads them."""
    return {name: pal.patterns[pal.taxon_index(name)] for name in pal.taxa}


def clade_of(tree, edge_child) -> frozenset:
    """The taxa below an edge: how the oracle names it."""
    return frozenset(leaf.name for leaf in tree.subtree_leaves(edge_child))


def oracle_lnl(pal, model, rates, pattern_to_cat=None):
    """The quartet's log-likelihood by ``tests/oracle.py``, which gets the
    model only as its six exchangeabilities and frequencies."""
    return float(pal.weights @ oracle.tree_site_lnls(
        QUARTET, masks_of(pal), model.rates, model.freqs, rates, pattern_to_cat,
    ))


def test_oracle_imports_nothing_it_checks():
    """The reference stays independent: standard library only."""
    imported = {
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(ast.parse(inspect.getsource(oracle)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported == {"__future__", "math"}


class TestExactness:
    """The kernel against the independent oracle."""

    @staticmethod
    def assert_kernel(pal, tree, model, rate_model, expected):
        engine = LikelihoodEngine(pal, model, rate_model)
        assert engine.loglikelihood(tree) == pytest.approx(expected, abs=1e-9)

    def test_matches_brute_force_gamma(self, quartet, gtr_model):
        pal, tree = quartet
        rate_model = RateModel.gamma(0.7, 4)
        expected = oracle_lnl(pal, gtr_model, rate_model.rates)
        self.assert_kernel(pal, tree, gtr_model, rate_model, expected)

    def test_matches_brute_force_single_rate(self, quartet, gtr_model):
        pal, tree = quartet
        expected = oracle_lnl(pal, gtr_model, [1.0])
        self.assert_kernel(pal, tree, gtr_model, RateModel.single(), expected)

    @pytest.mark.parametrize("n_cats", [3, 8])
    def test_matches_brute_force_cat(self, quartet, gtr_model, n_cats):
        """CAT: each pattern at its own category's rate alone; 8
        categories is past the k = 5 switch of the spectral product."""
        pal, tree = quartet
        rates = np.geomspace(0.1, 4.0, n_cats)
        p2c = np.arange(pal.n_patterns) % n_cats
        expected = oracle_lnl(pal, gtr_model, rates, p2c)
        self.assert_kernel(pal, tree, gtr_model, RateModel.cat(rates, p2c), expected)

    def test_jc_uniform_site(self):
        """A fully undetermined column has likelihood 1 (lnL 0)."""
        aln = Alignment.from_sequences([("A", "-"), ("B", "-"), ("C", "-")])
        pal = compress_alignment(aln)
        tree = parse_newick("(A:0.1,B:0.1,C:0.1);", taxa=pal.taxa)
        engine = LikelihoodEngine(pal, GTRModel.jc69(), RateModel.single())
        assert engine.loglikelihood(tree) == pytest.approx(0.0, abs=1e-12)

    def test_single_site_identical_bases(self):
        """All-A column under JC: likelihood = sum_x pi_x prod P(x->A)."""
        aln = Alignment.from_sequences([("A", "A"), ("B", "A"), ("C", "A")])
        pal = compress_alignment(aln)
        tree = parse_newick("(A:0.2,B:0.2,C:0.2);", taxa=pal.taxa)
        m = GTRModel.jc69()
        engine = LikelihoodEngine(pal, m, RateModel.single())
        P = m.transition_matrices(0.2)[0]
        expected = np.log(sum(0.25 * P[x, 0] ** 3 for x in range(4)))
        assert engine.loglikelihood(tree) == pytest.approx(expected, abs=1e-12)


def oracle_rate_models(n_patterns):
    """Γ and CAT on both sides of the spectral product's k = 5 switch."""
    models = {"gamma": RateModel.gamma(0.7, 4)}
    for n_cats in (3, 8):
        rates = np.geomspace(0.1, 4.0, n_cats)
        models[f"cat{n_cats}"] = RateModel.cat(rates, np.arange(n_patterns) % n_cats)
    return models


@pytest.mark.parametrize("rate_name", ["gamma", "cat3", "cat8"])
class TestEdgeKernelsAgainstTheOracle:
    """The Newton path (``sumtable`` → ``derivatives``) and the lazy-SPR
    insertion score of the kernel against ``tests/oracle.py``,
    which shares no step with them, to ``rel <= 1e-9``."""

    def test_edge_derivatives(self, quartet, gtr_model, rate_name):
        pal, tree = quartet
        rate_model = oracle_rate_models(pal.n_patterns)[rate_name]

        def expected(edge, t: float):
            return oracle.tree_edge_derivatives(
                QUARTET, masks_of(pal), pal.weights, clade_of(tree, edge), t,
                gtr_model.rates, gtr_model.freqs,
                rate_model.rates, rate_model.pattern_to_cat,
            )

        engine = LikelihoodEngine(pal, gtr_model, rate_model)
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        for e in tree.edges():
            coef, exps, logscale, first = engine.edge_coefficients_and_derivatives(
                down[id(e)], up[id(e)], 0.05
            )
            assert first == pytest.approx(expected(e, 0.05), rel=1e-9), e.name
            again = engine.edge_lnl_and_derivatives(coef, exps, logscale, 0.6)
            assert again == pytest.approx(expected(e, 0.6), rel=1e-9), e.name

    def test_insertion_score(self, gtr_model, rate_name):
        aln = Alignment.from_sequences([
            ("A", "ACGTTAC"), ("B", "ACGTAAC"), ("C", "AGGATCC"), ("D", "ATGTTCA"),
            ("E", "ACGATNC"),
        ])
        pal = compress_alignment(aln)
        rate_model = oracle_rate_models(pal.n_patterns)[rate_name]
        tree = parse_newick(QUARTET, taxa=pal.taxa)
        pruned = parse_newick("(A:0.1,B:0.1,E:0.1);", taxa=pal.taxa).find_leaf("E")
        engine = LikelihoodEngine(pal, gtr_model, rate_model)
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
                    t_sub, gtr_model.rates, gtr_model.freqs,
                    rate_model.rates, rate_model.pattern_to_cat,
                )
                assert score == pytest.approx(expected, rel=1e-9), e.name


SIX_TAXA = [
    ("A", "ACGTTACGAAGTC"), ("B", "ACGTAACTRAGCC"), ("C", "AGGATCCGAAGTA"),
    ("D", "ATGTTCAGCA-TG"), ("E", "ACCTTAGGAAGTT"), ("F", "GCGATACGTAGYC"),
]
#: The two shapes of an unrooted six-taxon tree: three cherries round the
#: root, and the caterpillar on branches short enough (1e-5 to 4e-5) that
#: a scaling threshold patched up to 2^-4 scales every inner node, and
#: the root scalers of every variable pattern hold part of the answer.
SIX_TAXA_TREES = {
    "cherries": "((A:0.12,B:0.3):0.08,(C:0.25,D:0.05):0.15,(E:0.2,F:0.4):0.1);",
    "rescaled": "(((A:2e-5,B:1e-5):3e-5,C:2e-5):1e-5,D:4e-5,(E:1e-5,F:3e-5):2e-5);",
}


@pytest.mark.parametrize("tree_name", sorted(SIX_TAXA_TREES))
@pytest.mark.parametrize("rate_name", ["gamma", "gamma+I", "cat"])
class TestSixTaxaAgainstTheOracle:
    """``loglikelihood`` and ``edge_lnl_and_derivatives`` of the
    kernel against ``tests/oracle.py``'s log-space brute force
    over all 256 joint internal states, to ``rel <= 1e-9``: Γ, Γ+I and
    CAT, on both six-taxon shapes."""

    @staticmethod
    def setup(gtr_model, tree_name, rate_name):
        pal = compress_alignment(Alignment.from_sequences(SIX_TAXA))
        rate_model = {
            "gamma": RateModel.gamma(0.7, 4),
            "gamma+I": RateModel.gamma(0.7, 4, p_invariant=0.25),
            "cat": RateModel.cat(np.geomspace(0.1, 4.0, 3), np.arange(pal.n_patterns) % 3),
        }[rate_name]
        newick = SIX_TAXA_TREES[tree_name]

        def expected(fn, *args):
            return fn(
                newick, masks_of(pal), *args, gtr_model.rates, gtr_model.freqs,
                rate_model.rates, rate_model.pattern_to_cat, rate_model.p_invariant,
            )

        return pal, rate_model, parse_newick(newick, taxa=pal.taxa), expected

    def test_site_loglikelihoods(self, gtr_model, tree_name, rate_name, monkeypatch):
        pal, rate_model, tree, expected = self.setup(gtr_model, tree_name, rate_name)
        want = expected(oracle.tree_site_lnls)
        step = 2.0**-4
        if tree_name == "rescaled":
            monkeypatch.setattr(kernel_base, "SCALE_MIN", step)
        engine = LikelihoodEngine(pal, gtr_model, rate_model)
        assert list(engine.site_loglikelihoods(tree)) == pytest.approx(want, rel=1e-9)
        assert engine.loglikelihood(tree) == pytest.approx(
            float(pal.weights @ want), rel=1e-9
        )
        if tree_name == "rescaled":
            down = engine.compute_down_partials(tree)
            assert all(down[id(v)].logscale.min() < 0.0 for v in tree.internal_nodes())
            scalings = down[id(tree.root)].logscale / np.log(step)
            assert scalings == pytest.approx(np.round(scalings), abs=1e-9)
            variable = np.bitwise_and.reduce(pal.patterns, axis=0) == 0
            assert np.round(scalings[variable]).min() >= 1

    def test_edge_lnl_and_derivatives(self, gtr_model, tree_name, rate_name):
        pal, rate_model, tree, expected = self.setup(gtr_model, tree_name, rate_name)
        clades = {id(e): clade_of(tree, e) for e in tree.edges()}
        ts = (0.05, 0.6) if tree_name == "cherries" else (3e-5, 0.05)
        want = {
            (key, t): expected(oracle.tree_edge_derivatives, pal.weights, clade, t)
            for key, clade in clades.items() for t in ts
        }
        engine = LikelihoodEngine(pal, gtr_model, rate_model)
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        for e in tree.edges():
            coef, exps, logscale = engine.edge_coefficients(down[id(e)], up[id(e)])
            for t in ts:
                got = engine.edge_lnl_and_derivatives(coef, exps, logscale, t)
                assert got == pytest.approx(want[id(e), t], rel=1e-9), (
                    sorted(clades[id(e)]), t,
                )


class TestEdgeMachinery:
    def test_edge_loglikelihood_consistent_all_edges(self, quartet, gtr_model):
        pal, tree = quartet
        engine = LikelihoodEngine(pal, gtr_model, RateModel.gamma(0.7, 4))
        lnl = engine.loglikelihood(tree)
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        for e in tree.edges():
            el = engine.edge_loglikelihood(e, e.length, down[id(e)], up[id(e)])
            assert el == pytest.approx(lnl, abs=1e-8)

    def test_sumtable_matches_edge_loglikelihood(self, quartet, gtr_model):
        pal, tree = quartet
        engine = LikelihoodEngine(pal, gtr_model, RateModel.gamma(0.7, 4))
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        e = tree.edges()[0]
        coef, exps, ls = engine.edge_coefficients(down[id(e)], up[id(e)])
        for t in (0.01, 0.1, 0.5, 2.0):
            l1, _, _ = engine.edge_lnl_and_derivatives(coef, exps, ls, t)
            l2 = engine.edge_loglikelihood(e, t, down[id(e)], up[id(e)])
            assert l1 == pytest.approx(l2, abs=1e-8)

    def test_derivatives_match_finite_differences(self, quartet, gtr_model):
        pal, tree = quartet
        engine = LikelihoodEngine(pal, gtr_model, RateModel.gamma(0.7, 4))
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        e = tree.edges()[2]
        coef, exps, ls = engine.edge_coefficients(down[id(e)], up[id(e)])
        t, eps = 0.3, 1e-5
        l0, g, h = engine.edge_lnl_and_derivatives(coef, exps, ls, t)
        lp, _, _ = engine.edge_lnl_and_derivatives(coef, exps, ls, t + eps)
        lm, _, _ = engine.edge_lnl_and_derivatives(coef, exps, ls, t - eps)
        assert g == pytest.approx((lp - lm) / (2 * eps), rel=1e-4)
        assert h == pytest.approx((lp - 2 * l0 + lm) / eps**2, rel=1e-3)

    def test_insertion_loglikelihood_finite(self, quartet, gtr_model):
        pal, tree = quartet
        engine = LikelihoodEngine(pal, gtr_model, RateModel.gamma(0.7, 4))
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        leaf = tree.find_leaf("A")
        other = tree.find_leaf("C")
        score = engine.insertion_loglikelihood(
            down[id(other)], up[id(other)], down[id(leaf)], other.length, leaf.length
        )
        assert np.isfinite(score)
        assert score < 0


class TestScaling:
    def test_long_chain_no_underflow(self, gtr_model):
        """A caterpillar of 40 taxa with long branches must not underflow."""
        n = 40
        names = [f"t{i}" for i in range(n)]
        aln = Alignment.from_sequences([(nm, "ACGT" * 5) for nm in names])
        pal = compress_alignment(aln)
        newick = names[0] + ":1.0"
        for nm in names[1:-2]:
            newick = f"({newick},{nm}:1.0):1.0"
        newick = f"({newick},{names[-2]}:1.0,{names[-1]}:1.0);"
        tree = parse_newick(newick, taxa=pal.taxa)
        engine = LikelihoodEngine(pal, gtr_model, RateModel.gamma(0.5, 4))
        lnl = engine.loglikelihood(tree)
        assert np.isfinite(lnl)
        assert lnl < 0

    def test_site_loglikelihoods_shape(self, quartet, gtr_model):
        pal, tree = quartet
        engine = LikelihoodEngine(pal, gtr_model)
        site = engine.site_loglikelihoods(tree)
        assert site.shape == (pal.n_patterns,)
        assert engine.loglikelihood(tree) == pytest.approx(
            float(pal.weights @ site)
        )


class TestRateModes:
    def test_cat_with_unit_rates_equals_single(self, quartet, gtr_model):
        pal, tree = quartet
        single = LikelihoodEngine(pal, gtr_model, RateModel.single())
        cat = LikelihoodEngine(
            pal,
            gtr_model,
            RateModel.cat(np.ones(3), np.zeros(pal.n_patterns, dtype=int)),
        )
        assert cat.loglikelihood(tree) == pytest.approx(
            single.loglikelihood(tree), abs=1e-10
        )

    def test_cat_edge_consistency(self, quartet, gtr_model):
        pal, tree = quartet
        p2c = np.arange(pal.n_patterns) % 3
        engine = LikelihoodEngine(
            pal, gtr_model, RateModel.cat(np.array([0.3, 1.0, 2.2]), p2c)
        )
        lnl = engine.loglikelihood(tree)
        down = engine.compute_down_partials(tree)
        up = engine.compute_up_partials(tree, down)
        for e in tree.edges():
            el = engine.edge_loglikelihood(e, e.length, down[id(e)], up[id(e)])
            assert el == pytest.approx(lnl, abs=1e-8)

    def test_gamma_one_category_equals_single(self, quartet, gtr_model):
        pal, tree = quartet
        g1 = LikelihoodEngine(pal, gtr_model, RateModel.gamma(1.0, 1))
        s = LikelihoodEngine(pal, gtr_model, RateModel.single())
        assert g1.loglikelihood(tree) == pytest.approx(s.loglikelihood(tree))

    def test_rate_model_validation(self, quartet, gtr_model):
        pal, _ = quartet
        with pytest.raises(ValueError):
            RateModel("nonsense", np.ones(4))
        with pytest.raises(ValueError):
            RateModel("cat", np.ones(4))  # missing pattern_to_cat
        with pytest.raises(ValueError):
            RateModel.cat(np.ones(2), np.array([0, 5]))  # cat out of range
        with pytest.raises(ValueError):
            LikelihoodEngine(
                pal, gtr_model, RateModel.cat(np.ones(2), np.zeros(3, dtype=int))
            )


class TestWeightsAndOps:
    def test_zero_weights_drop_contributions(self, quartet, gtr_model):
        pal, tree = quartet
        engine = LikelihoodEngine(pal, gtr_model)
        w = pal.weights.copy().astype(float)
        w[0] = 0.0
        reduced = engine.with_weights(w)
        site = engine.site_loglikelihoods(tree)
        assert reduced.loglikelihood(tree) == pytest.approx(float(w @ site))

    def test_weight_scaling_linear(self, quartet, gtr_model):
        pal, tree = quartet
        engine = LikelihoodEngine(pal, gtr_model)
        doubled = engine.with_weights(pal.weights * 2.0)
        assert doubled.loglikelihood(tree) == pytest.approx(
            2 * engine.loglikelihood(tree)
        )

    def test_op_counter_accumulates(self, quartet, gtr_model):
        pal, tree = quartet
        ops = OpCounter()
        engine = LikelihoodEngine(pal, gtr_model, ops=ops)
        engine.loglikelihood(tree)
        assert ops.pattern_ops > 0
        assert ops.clv_updates > 0
        before = ops.pattern_ops
        engine.loglikelihood(tree)
        assert ops.pattern_ops == 2 * before

    def test_bad_weights_rejected(self, quartet, gtr_model):
        pal, _ = quartet
        with pytest.raises(ValueError):
            LikelihoodEngine(pal, gtr_model, weights=np.ones(pal.n_patterns + 1))
        with pytest.raises(ValueError):
            LikelihoodEngine(pal, gtr_model, weights=-np.ones(pal.n_patterns))

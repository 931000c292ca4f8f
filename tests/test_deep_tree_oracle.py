"""Trees too deep for the brute force, against log-space pruning.

``tests/oracle.py``'s sum over joint internal states stops at six taxa.
Its Felsenstein pruning — every partial held as four logs, the file's
own ``exp(Qt)``, no NumPy — checks trees far past that: 200 taxa on
branches of scale 1.0 and 400 on scale 0.25, 60 simulated sites each,
whose site likelihoods reach e^-277 and e^-447, past the kernels'
scaling threshold 2^-256 once and twice: the deepest root scalers hold
at least one and two scalings.  Every registered kernel's site
log-likelihoods and ``loglikelihood`` must agree to ``rel <= 1e-9``
under Γ, Γ+I and CAT, and so must a lazy-SPR
``insertion_loglikelihood`` on the 400-taxon tree: about a third of the
taxa pruned as one clade and inserted on the edge nearest to halving
the rest, so three partials of a hundred-odd taxa each, mostly
unscaled, are multiplied with no rescale in between — the lowest values
the kernels form.
"""

import functools

import numpy as np
import pytest

from repro.datasets.generator import SimulationParams, simulate_alignment
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.likelihood.kernels import available_kernels
from repro.likelihood.kernels.base import SCALE_MIN
from repro.seq.patterns import compress_alignment
from repro.tree.newick import parse_newick, write_newick
from repro.tree.topology import Tree
from tests import oracle
from tests.test_likelihood_engine import clade_of, masks_of

#: conftest's ``gtr_model``, at module scope for the cached inputs.
MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))
#: name -> (taxa, branch scale) of a ``simulate_alignment`` run, 60 sites,
#: and the scalings the deepest root scaler holds at the least.
DEEP_TREES = {"200taxa": (200, 1.0, 1), "400taxa": (400, 0.25, 2)}
RATE_NAMES = ("gamma", "gamma+I", "cat")


@functools.cache
def deep(name: str):
    """``(pal, exact Newick of the true tree)`` of one deep tree."""
    n_taxa, scale, _ = DEEP_TREES[name]
    aln, tree = simulate_alignment(
        SimulationParams(n_taxa=n_taxa, n_sites=60, branch_scale=scale)
    )
    return compress_alignment(aln), write_newick(tree, digits=None)


def rate_model(name: str, n_patterns: int) -> RateModel:
    return {
        "gamma": lambda: RateModel.gamma(0.7, 4),
        "gamma+I": lambda: RateModel.gamma(0.7, 4, p_invariant=0.25),
        "cat": lambda: RateModel.cat(np.geomspace(0.1, 4.0, 3), np.arange(n_patterns) % 3),
    }[name]()


def model_args(rm: RateModel) -> dict:
    return {
        "exchangeabilities": MODEL.rates, "freqs": MODEL.freqs, "rates": rm.rates,
        "pattern_to_cat": rm.pattern_to_cat, "p_invariant": rm.p_invariant,
    }


@pytest.mark.parametrize("rate_name", RATE_NAMES)
@pytest.mark.parametrize("tree_name", sorted(DEEP_TREES))
def test_loglikelihood(tree_name, rate_name):
    pal, newick = deep(tree_name)
    rm = rate_model(rate_name, pal.n_patterns)
    want = oracle.pruning_site_lnls(newick, masks_of(pal), **model_args(rm))
    depth = DEEP_TREES[tree_name][2]
    assert min(want) < depth * np.log(SCALE_MIN)
    tree = parse_newick(newick, taxa=pal.taxa)
    for kernel in available_kernels():
        engine = LikelihoodEngine(pal, MODEL, rm, kernel=kernel)
        assert list(engine.site_loglikelihoods(tree)) == pytest.approx(want, rel=1e-9)
        assert engine.loglikelihood(tree) == pytest.approx(
            float(pal.weights @ want), rel=1e-9
        ), kernel
        root = engine.compute_down_partials(tree)[id(tree.root)]
        scalings = root.logscale / np.log(SCALE_MIN)
        assert scalings == pytest.approx(np.round(scalings), abs=1e-9)
        assert round(scalings.max()) >= depth


@pytest.mark.parametrize("rate_name", RATE_NAMES)
def test_insertion_loglikelihood(rate_name):
    pal, newick = deep("400taxa")
    rm = rate_model(rate_name, pal.n_patterns)
    tree = parse_newick(newick, taxa=pal.taxa)
    nodes, third = list(tree.postorder()), tree.n_leaves // 3
    at = min(
        range(len(nodes) - 1),  # the root comes last
        key=lambda i: abs(len(tree.subtree_leaves(nodes[i])) - third),
    )
    scores = []
    for kernel in available_kernels():
        work = tree.copy()
        pruned = list(work.postorder())[at]
        engine = LikelihoodEngine(pal, MODEL, rm, kernel=kernel)
        sub = engine.compute_down_partials(work, subtree=pruned)[id(pruned)]
        t_sub = pruned.length
        work.prune(pruned)
        half = work.n_leaves // 2
        edge = min(work.edges(), key=lambda v: abs(len(work.subtree_leaves(v)) - half))
        down = engine.compute_down_partials(work)
        up = engine.compute_up_partials(work, down)
        scores.append(engine.insertion_loglikelihood(
            down[id(edge)], up[id(edge)], sub, edge.length, t_sub
        ))
    want = oracle.pruning_insertion_lnl(
        write_newick(work, digits=None), write_newick(Tree(pruned, pal.taxa), digits=None),
        masks_of(pal), pal.weights, clade_of(work, edge), t_sub, **model_args(rm),
    )
    assert scores == pytest.approx([want] * len(scores), rel=1e-9)

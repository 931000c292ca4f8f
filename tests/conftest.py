"""Shared fixtures: small simulated data sets, engines, quick configs.

Expensive fixtures are session-scoped; tests must treat them as
read-only (copy trees before mutating).
"""

from __future__ import annotations

import json
import os
import platform
import time

import pytest

from repro.datasets import test_dataset
from repro.likelihood import GTRModel, LikelihoodEngine, RateModel
from repro.search import ComprehensiveConfig, StageParams
from repro.seq import Alignment, compress_alignment
from repro.tree import parse_newick, yule_tree
from repro.util import RAxMLRandom


def pytest_sessionstart(session):
    session.config._tier1_t0 = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    """``REPRO_TIER1_OUT=benchmarks/output/TIER1.json python -m pytest -q``
    records tier-1's size and wall time (ROADMAP 5f) in a tracked file,
    so a regression of either shows in review."""
    out = os.environ.get("REPRO_TIER1_OUT")
    if out:
        doc = {
            "tests": session.testscollected,
            "failed": session.testsfailed,
            "exit_status": int(exitstatus),
            "wall_seconds": round(time.perf_counter() - session.config._tier1_t0, 1),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        }
        with open(out, "w", encoding="ascii") as fh:
            fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def full_clv(part):
    """A partial's CLV at every pattern: a compact site-repeat partial's
    class rows gathered by its index, any other partial's CLV."""
    return part.clv if part.index is None else part.clv[part.index]


def assert_bit_identical(a, b, *, timings=False, ignore=(), context=""):
    """``a`` and ``b`` are bit-identical :class:`HybridResult`s, by the
    one definition (:meth:`HybridResult.identity`).  ``timings`` adds
    virtual seconds, op totals and the death set; ``ignore`` names
    fields a comparison legitimately skips (``rank_lnls`` when a rank
    died: it files no report); ``context`` says which run of a sweep
    this is, in the failure message."""
    want, got = a.identity(timings), b.identity(timings)
    for key in want:
        if key not in ignore:
            assert got[key] == want[key], f"{context}{key} differs"


@pytest.fixture(scope="session")
def tiny_pal():
    """6 taxa x 80 sites simulated alignment (pattern-compressed)."""
    pal, _ = test_dataset(n_taxa=6, n_sites=80, seed=101)
    return pal


@pytest.fixture(scope="session")
def tiny_true_tree():
    _, tree = test_dataset(n_taxa=6, n_sites=80, seed=101)
    return tree


@pytest.fixture(scope="session")
def small_pal():
    """8 taxa x 150 sites simulated alignment."""
    pal, _ = test_dataset(n_taxa=8, n_sites=150, seed=202)
    return pal


@pytest.fixture(scope="session")
def small_true_tree():
    _, tree = test_dataset(n_taxa=8, n_sites=150, seed=202)
    return tree


@pytest.fixture()
def gtr_model():
    return GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))


@pytest.fixture()
def tiny_engine(tiny_pal, gtr_model):
    return LikelihoodEngine(tiny_pal, gtr_model, RateModel.gamma(0.8, 4))


@pytest.fixture()
def tiny_tree(tiny_pal):
    """A deterministic random tree over the tiny alignment's taxa."""
    return yule_tree(tiny_pal.taxa, RAxMLRandom(77))


@pytest.fixture()
def handmade_alignment():
    return Alignment.from_sequences(
        [("A", "ACGTACGT"), ("B", "ACGTACGA"), ("C", "AGGTAGGT"), ("D", "ACTTACTT")]
    )


@pytest.fixture()
def handmade_pal(handmade_alignment):
    return compress_alignment(handmade_alignment)


@pytest.fixture()
def five_taxon_tree():
    return parse_newick("((A:0.1,B:0.2):0.05,C:0.3,(D:0.1,E:0.15):0.2);")


@pytest.fixture()
def quick_stage_params():
    """Minimal search effort for fast end-to-end tests."""
    return StageParams(
        bootstrap_rounds=1,
        fast_rounds=1,
        slow_max_rounds=1,
        thorough_max_rounds=2,
        brlen_passes=1,
        model_opt_rounds=1,
    )


@pytest.fixture()
def quick_config(quick_stage_params):
    return ComprehensiveConfig(
        n_bootstraps=4, cat_categories=3, stage_params=quick_stage_params
    )

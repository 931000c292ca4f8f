"""Settled SPR trials: what the hill climb skips when a round fails.

After a round that accepts nothing, :func:`hill_climb` runs the next one
on the same tree at a larger radius.  A trial that was rejected with
every edge of the pruned tree a candidate repeats bit for bit there, so
:func:`spr_round` counts it as tried, and charges its ops and region time
again, without running it.  These tests hold the climb to a reference
loop that re-runs every trial, and watch which trials run.
"""

import numpy as np
import pytest

import repro.search.spr as spr
from repro.datasets import test_dataset as make_test_dataset
from repro.likelihood.brlen import optimize_branch_lengths
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gtr import GTRModel
from repro.obs.recorder import Recorder, recording
from repro.search.hillclimb import hill_climb
from repro.search.spr import SPRParams, spr_round
from repro.threads.pool import VirtualThreadPool
from repro.threads.timing import LinearRegionTiming
from repro.tree.newick import write_newick
from repro.tree.random_trees import yule_tree
from repro.util.rng import RAxMLRandom

_MODEL = GTRModel(rates=(1.2, 2.5, 0.8, 1.1, 3.0, 1.0), freqs=(0.3, 0.2, 0.2, 0.3))
#: A schedule that cuts some trials' candidates at its first radii.
_CLIMB = dict(initial_radius=1, max_radius=4, radius_step=1, max_rounds=20,
              brlen_passes=1, min_improvement=0.01)


def _engine(n_taxa: int, rates: str) -> tuple[LikelihoodEngine, object]:
    pal, _ = make_test_dataset(n_taxa=n_taxa, n_sites=120, seed=300 + n_taxa)
    rm = (
        RateModel.cat(np.array([0.4, 1.0, 2.1]), np.arange(pal.n_patterns) % 3)
        if rates == "cat" else RateModel.gamma(0.8, 4)
    )
    pool = VirtualThreadPool(3, LinearRegionTiming())
    return LikelihoodEngine(pal, _MODEL, rm, pool=pool), pal


def _reference_climb(engine, tree, rng, max_prune_candidates, initial_radius,
                     max_radius, radius_step, max_rounds, brlen_passes,
                     min_improvement):
    """``hill_climb`` as it was before settled trials: every round runs
    every trial."""
    work = tree.copy()
    lnl = optimize_branch_lengths(engine, work, passes=brlen_passes)
    radius, rounds = initial_radius, 0
    while rounds < max_rounds:
        params = SPRParams(radius, min_improvement, max_prune_candidates)
        work, lnl, improved = spr_round(engine, work, params, current_lnl=lnl, rng=rng)
        rounds += 1
        if improved:
            lnl = optimize_branch_lengths(engine, work, passes=brlen_passes)
            continue
        if radius >= max_radius:
            break
        radius = min(radius + radius_step, max_radius)
    return work, lnl, rounds


def _counted(run, planned: bool = False):
    """``run()`` under a recorder: its result and the tried/accepted
    counters, and with ``planned`` the traversals the engine planned."""
    rec = Recorder()
    with recording(rec):
        out = run()
    counters = rec.metrics.counters
    counts = (counters["search.spr.tried"], counters["search.spr.accepted"])
    return out, counts + ((counters["clv.plan_traversals"],) if planned else ())


class TestSkipIsExact:
    @pytest.mark.parametrize("subsample", [None, 5])
    @pytest.mark.parametrize("rates", ["gamma", "cat"])
    @pytest.mark.parametrize("n_taxa", [6, 8])
    def test_matches_the_reference_loop(self, n_taxa, rates, subsample):
        """Same tree, lnl bits, round count, counters, RNG state, op
        totals and clock bits as a loop that re-runs every trial, for
        fewer planned traversals."""
        engine, pal = _engine(n_taxa, rates)
        # Each of these starts ends in failed rounds that settle trials.
        start = yule_tree(pal.taxa, RAxMLRandom(4240 + n_taxa))

        ref_rng = RAxMLRandom(11)
        (ref_tree, ref_lnl, ref_rounds), (*ref_counts, ref_planned) = _counted(
            lambda: _reference_climb(engine, start, ref_rng, subsample, **_CLIMB), True
        )
        ref_ops, ref_clock = engine.ops.snapshot(), engine.pool.clock.now

        engine, _ = _engine(n_taxa, rates)
        rng = RAxMLRandom(11)
        res, (*counts, planned) = _counted(
            lambda: hill_climb(engine, start, rng=rng, max_prune_candidates=subsample,
                               **_CLIMB), True
        )
        assert write_newick(res.tree, digits=None) == write_newick(ref_tree, digits=None)
        assert res.lnl == ref_lnl
        assert res.rounds == ref_rounds
        assert counts == ref_counts
        assert rng._state == ref_rng._state
        assert engine.ops.snapshot() == ref_ops
        assert engine.pool.clock.now == ref_clock
        assert planned < ref_planned


@pytest.fixture()
def trials(monkeypatch):
    """Every trial ``spr_round`` runs, as ``(prune index, radius, whole)``
    where ``whole`` says whether every edge was a candidate (``None``:
    the position cannot be pruned)."""
    seen: list[tuple[int, int, bool | None]] = []
    real = spr.try_spr

    def watched(engine, tree, idx, params):
        trial = real(engine, tree, idx, params)
        seen.append((idx, params.radius, None if trial is None else trial.whole))
        return trial

    monkeypatch.setattr(spr, "try_spr", watched)
    return seen


def _converged(n_taxa: int = 8):
    """An engine and a tree no SPR move improves at radius 6."""
    engine, pal = _engine(n_taxa, "gamma")
    tree = hill_climb(engine, yule_tree(pal.taxa, RAxMLRandom(7)),
                      max_radius=6, brlen_passes=1).tree
    return engine, tree


class TestWhichTrialsRun:
    def test_a_settled_trial_is_not_run_again(self, trials):
        engine, tree = _converged()
        lnl = engine.loglikelihood(tree)
        settled: dict[int, tuple] = {}
        (_, _, improved), first_counts = _counted(
            lambda: spr_round(engine, tree, SPRParams(radius=20),
                              current_lnl=lnl, settled=settled)
        )
        assert not improved
        first = {idx for idx, _, _ in trials}
        assert settled and settled.keys() <= first
        trials.clear()
        (_, lnl2, improved), counts = _counted(
            lambda: spr_round(engine, tree, SPRParams(radius=25),
                              current_lnl=lnl, settled=settled)
        )
        assert not improved and lnl2 == lnl
        assert {idx for idx, _, _ in trials} == first - settled.keys()
        assert counts == first_counts

    def test_a_trial_the_radius_cut_runs_again(self, trials):
        engine, tree = _converged()
        lnl = engine.loglikelihood(tree)
        settled: dict[int, tuple] = {}
        spr_round(engine, tree, SPRParams(radius=1), current_lnl=lnl, settled=settled)
        cut = {idx for idx, _, whole in trials if whole is False}
        assert cut and not cut & settled.keys()
        trials.clear()
        spr_round(engine, tree, SPRParams(radius=2), current_lnl=lnl, settled=settled)
        assert cut <= {idx for idx, _, _ in trials}

    def test_nothing_is_skipped_after_an_accepted_move(self, trials):
        """Prune indices past the round's first accepted move name other
        subtrees of a new tree: settled or not, they run."""
        engine, pal = _engine(8, "gamma")
        tree = yule_tree(pal.taxa, RAxMLRandom(4250))
        lnl = optimize_branch_lengths(engine, tree, passes=1)
        params = SPRParams(radius=6)
        reference = spr_round(engine, tree, params, current_lnl=lnl)
        assert reference[2]
        ran = [idx for idx, _, _ in trials]
        first_accept = self._first_accept(engine, tree, lnl, params)
        trials.clear()
        mark = engine.charges()
        settled = dict.fromkeys(range(first_accept + 1, max(ran) + 1), (mark, mark))
        out = spr_round(engine, tree, params, current_lnl=lnl, settled=settled)
        assert [idx for idx, _, _ in trials] == ran
        assert out[1] == reference[1] and out[2]
        assert write_newick(out[0], digits=None) == write_newick(reference[0], digits=None)
        assert settled == {}

    @staticmethod
    def _first_accept(engine, tree, lnl, params) -> int:
        for idx in range(len(list(tree.postorder()))):
            trial = spr.try_spr(engine, tree, idx, params)
            if trial is not None and trial[1] > lnl + params.min_improvement:
                return idx
        raise AssertionError("no move improves the tree")

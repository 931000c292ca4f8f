"""Tests for model optimisation (repro.likelihood.model_opt)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.likelihood.model_opt as model_opt
from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gamma import MIN_ALPHA
from repro.likelihood.gtr import GTRModel
from repro.likelihood.model_opt import (
    _RATE_HI,
    _RATE_LO,
    _minimize_bounded,
    empirical_frequencies,
    optimize_alpha,
    optimize_model,
    optimize_rates,
)


@pytest.fixture()
def setup(tiny_pal, tiny_tree):
    engine = LikelihoodEngine(tiny_pal, GTRModel.jc69(), RateModel.gamma(1.0, 4))
    return engine, tiny_tree.copy()


class TestEmpiricalFrequencies:
    def test_probability_vector(self, setup):
        engine, _ = setup
        f = empirical_frequencies(engine)
        assert f.shape == (4,)
        assert f.sum() == pytest.approx(1.0)
        assert np.all(f > 0)

    def test_skewed_composition_detected(self):
        from repro.seq.alignment import Alignment
        from repro.seq.patterns import compress_alignment

        aln = Alignment.from_sequences(
            [("a", "AAAAAAAAGC"), ("b", "AAAAAAAAGC"), ("c", "AAAAAAAATC")]
        )
        engine = LikelihoodEngine(compress_alignment(aln), GTRModel.jc69())
        f = empirical_frequencies(engine)
        assert f[0] > 0.5  # A dominates


#: ``(lo, hi)`` of the three call sites: Γ shape, +I proportion, GTR rates.
CALL_SITE_BOUNDS = [(MIN_ALPHA, 20.0), (0.0, 0.9), (_RATE_LO, _RATE_HI)]


def _smooth(kind, c, w, lo, hi):
    """A smooth test function on ``[lo, hi]``: unimodal (``bowl``, ``log``)
    or multimodal (``wave``), minimum near ``lo + c * (hi - lo)``."""
    x0 = lo + c * (hi - lo)
    span = hi - lo
    if kind == "bowl":
        return lambda x: ((x - x0) / span) ** 2 + 0.1 * ((x - x0) / span) ** 4
    if kind == "log":
        return lambda x: x / (x0 + 1e-3) - math.log(x + 1e-3)
    return lambda x: math.sin(w * (x - x0) / span) + 0.5 * ((x - x0) / span) ** 2


class TestBoundedBrent:
    """``_minimize_bounded`` is SciPy's bounded Brent, step for step."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["bowl", "log", "wave"]),
        st.floats(0.0, 1.0),
        st.floats(1.0, 40.0),
        st.one_of(
            st.sampled_from(CALL_SITE_BOUNDS),
            st.tuples(st.floats(-50.0, 50.0), st.floats(1e-3, 100.0)).map(
                lambda t: (t[0], t[0] + t[1])),
        ),
        st.one_of(st.just(1e-3), st.floats(1e-8, 1e-1)),
    )
    def test_bounded_brent_matches_scipy(self, kind, c, w, bounds, xatol):
        optimize = pytest.importorskip("scipy.optimize")
        lo, hi = bounds
        if kind == "log" and lo < 0.0:
            lo, hi = 0.0, hi - lo
        f = _smooth(kind, c, w, lo, hi)
        ref = optimize.minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        x, fun, nfev = _minimize_bounded(f, lo, hi, xatol)
        assert (x, fun, nfev) == (float(ref.x), float(ref.fun), ref.nfev)

    def test_maxiter_caps_evaluations(self, monkeypatch):
        monkeypatch.setattr(model_opt, "_MAXITER", 5)
        calls = []
        _, _, nfev = _minimize_bounded(
            lambda x: calls.append(x) or math.sin(40.0 * x), 0.0, 1.0, 1e-12)
        assert nfev == len(calls) == 5


class TestOptimizeAlpha:
    def test_improves_lnl(self, setup):
        engine, tree = setup
        before = engine.loglikelihood(tree)
        engine2, after = optimize_alpha(engine, tree)
        assert after >= before - 1e-9
        assert engine2.rate_model.alpha is not None

    def test_cat_engine_passthrough(self, tiny_pal, tiny_tree, gtr_model):
        p2c = np.zeros(tiny_pal.n_patterns, dtype=int)
        engine = LikelihoodEngine(
            tiny_pal, gtr_model, RateModel.cat(np.ones(1), p2c)
        )
        engine2, lnl = optimize_alpha(engine, tiny_tree.copy())
        assert engine2 is engine

    def test_result_is_evaluated_lnl(self, setup):
        engine, tree = setup
        engine2, lnl = optimize_alpha(engine, tree)
        assert lnl == pytest.approx(engine2.loglikelihood(tree), abs=1e-9)


class TestOptimizeRates:
    def test_improves_lnl(self, setup):
        engine, tree = setup
        before = engine.loglikelihood(tree)
        engine2, after = optimize_rates(engine, tree)
        assert after >= before - 1e-9

    def test_gt_rate_stays_one(self, setup):
        engine, tree = setup
        engine2, _ = optimize_rates(engine, tree)
        assert engine2.model.rates[5] == 1.0


class TestOptimizeModel:
    def test_full_round_improves(self, setup):
        engine, tree = setup
        before = engine.loglikelihood(tree)
        engine2, after = optimize_model(engine, tree, rounds=1)
        assert after >= before - 1e-9

    def test_frequencies_become_empirical(self, setup):
        engine, tree = setup
        emp = empirical_frequencies(engine)
        engine2, _ = optimize_model(engine, tree, rounds=1)
        assert np.allclose(engine2.model.pi, emp, atol=1e-9)

    def test_can_disable_parts(self, setup):
        engine, tree = setup
        engine2, _ = optimize_model(
            engine, tree, rounds=1, optimize_gtr=False, optimize_frequencies=False
        )
        assert engine2.model.rates == engine.model.rates
        assert engine2.model.freqs == engine.model.freqs

    def test_bad_rounds_rejected(self, setup):
        engine, tree = setup
        with pytest.raises(ValueError):
            optimize_model(engine, tree, rounds=0)

"""Tests for discrete-Γ rates (repro.likelihood.gamma)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.likelihood.gamma as gamma_mod
from repro.likelihood.gamma import (
    MAX_ALPHA,
    MIN_ALPHA,
    discrete_gamma_rates,
    gammainc,
    gammaincinv,
)


class TestDiscreteGamma:
    def test_mean_is_one(self):
        for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
            rates = discrete_gamma_rates(alpha, 4)
            assert rates.mean() == pytest.approx(1.0, abs=1e-12)

    def test_rates_increasing(self):
        rates = discrete_gamma_rates(0.7, 4)
        assert np.all(np.diff(rates) > 0)

    def test_rates_positive(self):
        rates = discrete_gamma_rates(0.05, 8)
        assert np.all(rates > 0)

    def test_single_category_is_one(self):
        assert discrete_gamma_rates(0.5, 1).tolist() == [1.0]

    def test_more_heterogeneity_for_small_alpha(self):
        """Small alpha => wide rate spread; large alpha => rates near 1."""
        spread_small = np.ptp(discrete_gamma_rates(0.2, 4))
        spread_big = np.ptp(discrete_gamma_rates(20.0, 4))
        assert spread_small > 2.0
        assert spread_big < 0.6
        assert spread_big < spread_small / 4

    def test_large_alpha_approaches_uniform(self):
        rates = discrete_gamma_rates(99.0, 4)
        assert np.allclose(rates, 1.0, atol=0.15)

    def test_known_yang_values(self):
        """Spot-check against Yang (1994) Table: alpha=0.5, k=4 mean rates."""
        rates = discrete_gamma_rates(0.5, 4)
        # Published mean-category rates: ~0.0334, 0.2519, 0.8203, 2.8944
        assert rates == pytest.approx([0.0334, 0.2519, 0.8203, 2.8944], abs=2e-3)

    def test_alpha_bounds_enforced(self):
        with pytest.raises(ValueError):
            discrete_gamma_rates(MIN_ALPHA / 2, 4)
        with pytest.raises(ValueError):
            discrete_gamma_rates(MAX_ALPHA * 2, 4)

    def test_bad_category_count(self):
        with pytest.raises(ValueError):
            discrete_gamma_rates(1.0, 0)

    @settings(max_examples=60)
    @given(st.floats(MIN_ALPHA, MAX_ALPHA), st.integers(2, 12))
    def test_mean_one_property(self, alpha, k):
        rates = discrete_gamma_rates(alpha, k)
        assert rates.shape == (k,)
        assert rates.mean() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(rates) >= 0)


class TestIncompleteGamma:
    """The standard-library P(a, x) and P⁻¹ against ``scipy.special``."""

    @settings(max_examples=60, deadline=None)
    @given(st.floats(MIN_ALPHA, MAX_ALPHA + 1.0))
    def test_gamma_quantiles_match_scipy(self, a):
        special = pytest.importorskip("scipy.special")
        for k in range(2, 17):
            for j in range(1, k):
                p = j / k
                ref = float(special.gammaincinv(a, p))
                assert gammaincinv(a, p) == pytest.approx(ref, rel=1e-12, abs=0)
                # P at the quantile, and at the a + 1 point discrete_gamma_rates asks for
                for aa, x in ((a, ref), (a + 1.0, ref * a)):
                    want = float(special.gammainc(aa, x))
                    assert gammainc(aa, x) == pytest.approx(want, rel=1e-12, abs=0)

    def test_endpoints(self):
        assert gammainc(2.0, 0.0) == 0.0
        assert gammainc(2.0, math.inf) == 1.0
        assert gammaincinv(2.0, 0.0) == 0.0
        assert gammaincinv(2.0, 1.0) == math.inf

    @pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
    def test_nonpositive_shape_rejected(self, a):
        with pytest.raises(ValueError, match="a > 0"):
            gammainc(a, 1.0)
        with pytest.raises(ValueError, match="a > 0"):
            gammaincinv(a, 0.5)

    @pytest.mark.parametrize("x", [-1e-300, -1.0, math.nan])
    def test_negative_x_rejected(self, x):
        with pytest.raises(ValueError, match="x >= 0"):
            gammainc(1.0, x)

    @pytest.mark.parametrize("p", [-0.1, 1.0 + 1e-15, math.nan])
    def test_probability_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError, match="0 <= p <= 1"):
            gammaincinv(1.0, p)

    @pytest.mark.parametrize("x", [0.5, 5.0], ids=["series", "continued-fraction"])
    def test_unconverged_gammainc_raises(self, monkeypatch, x):
        monkeypatch.setattr(gamma_mod, "_SERIES_MAX", 2)
        with pytest.raises(ArithmeticError, match=f"a=1.5, x={x}"):
            gammainc(1.5, x)

    def test_unconverged_gammaincinv_raises(self, monkeypatch):
        monkeypatch.setattr(gamma_mod, "_HALLEY_MAX", 1)
        with pytest.raises(ArithmeticError, match="a=0.5, p=0.3"):
            gammaincinv(0.5, 0.3)

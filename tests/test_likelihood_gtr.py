"""Tests for the GTR model (repro.likelihood.gtr)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.likelihood.gtr import GTRModel
from tests import oracle

rate_st = st.floats(0.05, 20.0)
freq_part = st.floats(0.05, 1.0)


def random_model(rates, raw_freqs):
    freqs = np.asarray(raw_freqs)
    freqs = freqs / freqs.sum()
    return GTRModel(tuple(rates), tuple(freqs))


class TestConstruction:
    def test_gt_rate_normalised_to_one(self):
        m = GTRModel(rates=(2, 4, 2, 2, 6, 2), freqs=(0.25,) * 4)
        assert m.rates[5] == 1.0
        assert m.rates[1] == 2.0

    def test_jc69(self):
        m = GTRModel.jc69()
        assert m.rates == (1.0,) * 6
        assert m.freqs == (0.25,) * 4

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            GTRModel(rates=(1, 1, 0, 1, 1, 1), freqs=(0.25,) * 4)

    def test_rejects_wrong_rate_count(self):
        with pytest.raises(ValueError):
            GTRModel(rates=(1, 1, 1), freqs=(0.25,) * 4)

    def test_rejects_bad_freqs(self):
        with pytest.raises(ValueError):
            GTRModel(rates=(1,) * 6, freqs=(0.5, 0.5, 0.2, -0.2))
        with pytest.raises(ValueError):
            GTRModel(rates=(1,) * 6, freqs=(0.3, 0.3, 0.3, 0.3))


class TestQMatrix:
    def test_rows_sum_to_zero(self, gtr_model):
        assert np.allclose(gtr_model.q_matrix.sum(axis=1), 0.0, atol=1e-12)

    def test_normalised_mean_rate_one(self, gtr_model):
        q = gtr_model.q_matrix
        assert -float(np.dot(gtr_model.pi, np.diag(q))) == pytest.approx(1.0)

    def test_detailed_balance(self, gtr_model):
        """Reversibility: pi_i q_ij == pi_j q_ji."""
        q = gtr_model.q_matrix
        pi = gtr_model.pi
        flux = pi[:, None] * q
        assert np.allclose(flux, flux.T, atol=1e-12)

    def test_one_zero_eigenvalue(self, gtr_model):
        lam = gtr_model.eigenvalues
        assert np.sum(np.isclose(lam, 0.0, atol=1e-10)) == 1
        assert np.all(lam <= 1e-10)


class TestTransitionMatrices:
    def test_identity_at_zero(self, gtr_model):
        p = gtr_model.transition_matrices(0.0)
        assert np.allclose(p[0], np.eye(4), atol=1e-12)

    def test_rows_are_distributions(self, gtr_model):
        p = gtr_model.transition_matrices(0.37, [0.5, 1.0, 3.0])
        assert p.shape == (3, 4, 4)
        assert np.allclose(p.sum(axis=2), 1.0, atol=1e-10)
        assert np.all(p >= 0)

    def test_chapman_kolmogorov(self, gtr_model):
        pa = gtr_model.transition_matrices(0.1)[0]
        pb = gtr_model.transition_matrices(0.23)[0]
        pc = gtr_model.transition_matrices(0.33)[0]
        assert np.allclose(pa @ pb, pc, atol=1e-12)

    def test_stationarity(self, gtr_model):
        p = gtr_model.transition_matrices(0.8)[0]
        assert np.allclose(gtr_model.pi @ p, gtr_model.pi, atol=1e-12)

    def test_long_time_converges_to_pi(self, gtr_model):
        p = gtr_model.transition_matrices(500.0)[0]
        for row in p:
            assert np.allclose(row, gtr_model.pi, atol=1e-8)

    def test_rate_multiplier_equivalent_to_scaled_time(self, gtr_model):
        p1 = gtr_model.transition_matrices(0.2, 2.0)[0]
        p2 = gtr_model.transition_matrices(0.4, 1.0)[0]
        assert np.allclose(p1, p2, atol=1e-12)

    def test_negative_time_rejected(self, gtr_model):
        with pytest.raises(ValueError):
            gtr_model.transition_matrices(-0.1)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, gtr_model, t):
        """A NaN length used to give an all-NaN P (``inf``: ``inf``
        entries), and with it a NaN likelihood instead of an error."""
        with pytest.raises(ValueError, match="finite"):
            gtr_model.transition_matrices(t)
        with pytest.raises(ValueError, match="finite"):
            gtr_model.transition_matrix_stack([0.1, t, 0.2], [1.0, 2.0])

    def test_stack_negative_length_rejected(self, gtr_model):
        with pytest.raises(ValueError, match="non-negative"):
            gtr_model.transition_matrix_stack([0.1, -0.1])

    def test_derivative_matches_finite_difference(self, gtr_model):
        t, eps = 0.3, 1e-6
        d = gtr_model.transition_matrix_derivatives(t, [1.0, 2.5])
        fd = (
            gtr_model.transition_matrices(t + eps, [1.0, 2.5])
            - gtr_model.transition_matrices(t - eps, [1.0, 2.5])
        ) / (2 * eps)
        assert np.allclose(d, fd, atol=1e-6)

    @settings(max_examples=20)
    @given(
        st.tuples(rate_st, rate_st, rate_st, rate_st, rate_st, rate_st),
        st.tuples(freq_part, freq_part, freq_part, freq_part),
        st.floats(0.001, 5.0),
    )
    def test_rows_distributions_property(self, rates, freqs, t):
        m = random_model(rates, freqs)
        p = m.transition_matrices(t)[0]
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-8)
        assert np.all(p >= -1e-12)


@pytest.mark.parametrize("k", [1, 4, 5, 8, 256])
class TestAgainstOracle:
    """P and dP/dt against ``tests/oracle.py`` — its own Q and its own
    scaling-and-squaring ``exp``, no eigendecomposition — on both sides of
    the k = 4 -> 5 switch in ``_spectral_products``."""

    EXCH = (1.2, 2.5, 0.8, 1.1, 3.0, 1.0)
    FREQS = (0.3, 0.2, 0.2, 0.3)
    LENGTHS = (0.0, 1e-6, 0.05, 0.37, 2.5)

    @staticmethod
    def multipliers(k):
        return np.array([1.0]) if k == 1 else np.geomspace(0.02, 6.0, k)

    def test_transition_matrices(self, k):
        model, rates = GTRModel(self.EXCH, self.FREQS), self.multipliers(k)
        for t in self.LENGTHS:
            got = model.transition_matrices(t, rates)
            want = [oracle.transition_matrix(self.EXCH, self.FREQS, t * r) for r in rates]
            assert np.abs(got - np.array(want)).max() < 1e-10

    def test_transition_matrix_derivatives(self, k):
        model, rates = GTRModel(self.EXCH, self.FREQS), self.multipliers(k)
        for t in self.LENGTHS[::2]:
            got = model.transition_matrix_derivatives(t, rates)
            want = [
                oracle.transition_matrix_derivative(self.EXCH, self.FREQS, t, r)
                for r in rates
            ]
            assert np.abs(got - np.array(want)).max() < 1e-10


class TestWithers:
    def test_with_rates(self, gtr_model):
        m2 = gtr_model.with_rates((1, 1, 1, 1, 1, 1))
        assert m2.rates == (1.0,) * 6
        assert m2.freqs == gtr_model.freqs

    def test_with_freqs(self, gtr_model):
        m2 = gtr_model.with_freqs((0.25, 0.25, 0.25, 0.25))
        assert m2.freqs == (0.25,) * 4
        assert m2.rates == gtr_model.rates

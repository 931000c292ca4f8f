"""Discrete-Γ rate heterogeneity (Yang 1994), as in GTRGAMMA.

Site rates are modelled as a Gamma(α, α) distribution (mean 1) discretised
into ``k`` equal-probability categories.  Category rates are the *means* of
the distribution over each quantile interval, computed with the incomplete
gamma function — the same scheme RAxML uses (k = 4 by default).
"""

from __future__ import annotations

import numpy as np
from scipy import special

#: RAxML clamps alpha into a sane range during optimisation.
MIN_ALPHA = 0.02
MAX_ALPHA = 100.0


def discrete_gamma_rates(alpha: float, n_categories: int = 4) -> np.ndarray:
    """Mean rates of ``n_categories`` equal-probability Γ(α, α) categories.

    The returned rates are non-negative, increasing, and average exactly 1,
    so expected branch lengths are unchanged by rate heterogeneity.

    >>> r = discrete_gamma_rates(0.5, 4)
    >>> bool(abs(r.mean() - 1.0) < 1e-12)
    True
    """
    if not (MIN_ALPHA <= alpha <= MAX_ALPHA):
        raise ValueError(
            f"alpha must be in [{MIN_ALPHA}, {MAX_ALPHA}], got {alpha}"
        )
    if n_categories < 1:
        raise ValueError(f"need at least one category, got {n_categories}")
    if n_categories == 1:
        return np.ones(1)

    k = n_categories
    # Quantile boundaries of Gamma(alpha, scale=1/alpha): the unit-scale
    # quantile times the scale (as a reciprocal multiply — dividing by
    # alpha is not guaranteed to round the same way).
    probs = np.arange(1, k) / k
    cut = special.gammaincinv(alpha, probs) * (1.0 / alpha)
    bounds = np.concatenate(([0.0], cut, [np.inf]))
    # Mean of the distribution over [a, b], via the incomplete gamma
    # identity: E[X; X in (a,b)] = (P(alpha+1, b*alpha) - P(alpha+1, a*alpha)) / alpha
    # for Gamma(alpha, scale=1/alpha), where P is the regularised lower
    # incomplete gamma.  Dividing by the interval probability 1/k and the
    # overall mean 1 yields the category rate.
    upper = np.where(np.isinf(bounds[1:]), 1.0, special.gammainc(alpha + 1.0, bounds[1:] * alpha))
    lower = special.gammainc(alpha + 1.0, bounds[:-1] * alpha)
    rates = (upper - lower) * k
    # Guard against roundoff: renormalise to mean exactly 1.
    rates = np.maximum(rates, 1e-12)
    rates /= rates.mean()
    return rates

"""Discrete-Γ rate heterogeneity (Yang 1994), as in GTRGAMMA.

Site rates are modelled as a Gamma(α, α) distribution (mean 1) discretised
into ``k`` equal-probability categories.  Category rates are the *means* of
the distribution over each quantile interval, computed with the incomplete
gamma function — the same scheme RAxML uses (k = 4 by default).

:func:`gammainc` and :func:`gammaincinv` are Numerical Recipes' ``gammp`` /
``invgammp`` on the standard library (no SciPy on the analysis path); they
agree with SciPy's ``gammainc`` / ``gammaincinv`` to about 1e-13 relative.
"""

from __future__ import annotations

import math

import numpy as np

#: RAxML clamps alpha into a sane range during optimisation.
MIN_ALPHA = 0.02
MAX_ALPHA = 100.0

_EPS = 2.220446049250313e-16
#: Iteration caps, far above need: for a ≤ 500 the series takes ≤ 191 terms
#: and the continued fraction ≤ 91; the quantiles take ≤ 4 Halley steps.
_SERIES_MAX, _HALLEY_MAX = 1000, 24


def gammainc(a: float, x: float) -> float:
    """Regularised lower incomplete gamma P(a, x), for ``a > 0, x >= 0``."""
    if not a > 0.0:
        raise ValueError(f"gammainc needs a > 0, got a={a}")
    if not x >= 0.0:
        raise ValueError(f"gammainc needs x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))  # x^a e^-x / Γ(a)
    if x < a + 1.0:  # series: P = pre / a · Σ x^n / ((a+1)…(a+n))
        term = total = 1.0 / a
        ap = a
        for _ in range(_SERIES_MAX):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                return total * prefactor
    else:  # Lentz continued fraction for Q = 1 - P
        tiny = 1e-300
        b = x + 1.0 - a
        c = 1.0 / tiny
        d = h = 1.0 / b
        for i in range(1, _SERIES_MAX + 1):
            an = -i * (i - a)
            b += 2.0
            d = an * d + b
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = b + an / c
            c = tiny if abs(c) < tiny else c
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                return 1.0 - prefactor * h
    raise ArithmeticError(f"gammainc did not converge at a={a}, x={x}")


def gammaincinv(a: float, p: float) -> float:
    """The ``x`` with P(a, x) = p, for ``a > 0`` and ``0 <= p <= 1``.

    >>> x = gammaincinv(0.5, 0.25)
    >>> abs(gammainc(0.5, x) - 0.25) < 1e-15
    True
    """
    if not a > 0.0:
        raise ValueError(f"gammaincinv needs a > 0, got a={a}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"gammaincinv needs 0 <= p <= 1, got p={p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return math.inf
    a1 = a - 1.0
    gln = math.lgamma(a)
    if a > 1.0:  # Wilson–Hilferty
        lna1 = math.log(a1)
        afac = math.exp(a1 * (lna1 - 1.0) - gln)
        t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
        if p < 0.5:
            z = -z
        x = max(1e-3, a * (1.0 - 1.0 / (9.0 * a) - z / (3.0 * math.sqrt(a))) ** 3)
    else:  # small a: P ≈ x^a / Γ(a+1) near 0, an exponential tail above
        t = 1.0 - a * (0.253 + a * 0.12)
        x = (p / t) ** (1.0 / a) if p < t else 1.0 - math.log(1.0 - (p - t) / (1.0 - t))
    for _ in range(_HALLEY_MAX):
        if x <= 0.0:
            return 0.0
        err = gammainc(a, x) - p
        if a > 1.0:  # the density x^(a-1) e^-x / Γ(a), factored at its mode
            t = afac * math.exp(-(x - a1) + a1 * (math.log(x) - lna1))
        else:
            t = math.exp(-x + a1 * math.log(x) - gln)
        u = err / t
        step = u / (1.0 - 0.5 * min(1.0, u * (a1 / x - 1.0)))
        x -= step
        if x <= 0.0:
            x = 0.5 * (x + step)
        if abs(step) < 1e-8 * x:
            return x
    raise ArithmeticError(f"gammaincinv did not converge at a={a}, p={p}")


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
    cut = [gammaincinv(alpha, j / k) * (1.0 / alpha) for j in range(1, k)]
    # Mean of the distribution over [a, b], via the incomplete gamma
    # identity: E[X; X in (a,b)] = (P(alpha+1, b*alpha) - P(alpha+1, a*alpha)) / alpha
    # for Gamma(alpha, scale=1/alpha), where P is the regularised lower
    # incomplete gamma.  Dividing by the interval probability 1/k and the
    # overall mean 1 yields the category rate.
    cdf = np.array([gammainc(alpha + 1.0, b * alpha) for b in [0.0, *cut, math.inf]])
    rates = np.diff(cdf) * k
    # Guard against roundoff: renormalise to mean exactly 1.
    rates = np.maximum(rates, 1e-12)
    rates /= rates.mean()
    return rates

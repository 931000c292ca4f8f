"""An independent likelihood reference: GTR + rate heterogeneity on a
quartet by brute force, in pure Python.

Nothing here imports ``repro.likelihood.gtr`` or
``repro.likelihood.kernels`` — the code under test.  The rate matrix is
built from the six exchangeabilities and the base frequencies, the
transition matrices come from a scaling-and-squaring ``exp(Qt)`` on nested
lists (no eigendecomposition, no NumPy, no BLAS), tip vectors are read off
the 4-bit state masks, and the likelihood is the explicit sum over both
internal states of the unrooted quartet ``((A,B),C,D)``.  The engine, its
kernels and ``GTRModel`` share none of these steps, so agreement is not
the code agreeing with itself.
"""

from __future__ import annotations

import math

Matrix = list[list[float]]

#: (row, col) of each exchangeability, in the AC, AG, AT, CG, CT, GT order.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TAYLOR_TERMS = 20


def rate_matrix(exchangeabilities, freqs) -> Matrix:
    """Reversible Q with ``Q[i][j] = r_ij · π_j``, rows summing to zero,
    scaled to one expected substitution per unit time at stationarity."""
    q = [[0.0] * 4 for _ in range(4)]
    for rate, (i, j) in zip(exchangeabilities, _PAIRS):
        q[i][j] = rate * freqs[j]
        q[j][i] = rate * freqs[i]
    for i in range(4):
        q[i][i] = -math.fsum(q[i])
    mean_rate = -math.fsum(freqs[i] * q[i][i] for i in range(4))
    return [[x / mean_rate for x in row] for row in q]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return [
        [math.fsum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
        for i in range(4)
    ]


def expm(a: Matrix) -> Matrix:
    """``exp(a)`` by scaling and squaring: halve until the max row sum is
    at most 1/2, sum the Taylor series there, square back up."""
    norm = max(math.fsum(abs(x) for x in row) for row in a)
    squarings = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0.0 else 0
    scaled = [[x / 2.0**squarings for x in row] for row in a]
    result = [[float(i == j) for j in range(4)] for i in range(4)]
    term = [row[:] for row in result]
    for n in range(1, _TAYLOR_TERMS + 1):
        term = [[x / n for x in row] for row in matmul(term, scaled)]
        result = [[r + t for r, t in zip(rr, tr)] for rr, tr in zip(result, term)]
    for _ in range(squarings):
        result = matmul(result, result)
    return result


def transition_matrix(exchangeabilities, freqs, t: float) -> Matrix:
    """``P(t) = exp(Q t)``; pass ``t · rate`` for a rate multiplier."""
    q = rate_matrix(exchangeabilities, freqs)
    return expm([[x * t for x in row] for row in q])


def transition_matrix_derivative(
    exchangeabilities, freqs, t: float, rate: float = 1.0, h: float = 1e-3
) -> Matrix:
    """``d/dt P(t · rate)`` by the five-point central difference, stepped
    in ``s = t · rate`` so the error does not grow with the multiplier
    (O(h⁴) truncation, ~1e-13 · rate roundoff at the default step)."""
    s = t * rate

    def p(offset: float) -> Matrix:
        return transition_matrix(exchangeabilities, freqs, s + offset)

    far_hi, hi, lo, far_lo = p(2 * h), p(h), p(-h), p(-2 * h)
    return [
        [
            rate * (-far_hi[i][j] + 8.0 * hi[i][j] - 8.0 * lo[i][j] + far_lo[i][j])
            / (12.0 * h)
            for j in range(4)
        ]
        for i in range(4)
    ]


def tip_vector(mask: int) -> list[float]:
    """State likelihoods of a 4-bit mask (bit order A = 1, C = 2, G = 4,
    T = 8): 1.0 for every state the observed character allows."""
    return [float(mask >> state & 1) for state in range(4)]


def quartet_lnl(
    masks, weights, lengths, exchangeabilities, freqs, rates, pattern_to_cat=None
) -> float:
    """Log-likelihood of the quartet ``((A:ta, B:tb):ti, C:tc, D:td)``.

    ``masks[x][p]`` is taxon ``x``'s state mask at pattern ``p`` (taxa in
    A, B, C, D order), ``weights[p]`` the pattern's multiplicity and
    ``lengths`` is ``(ta, tb, ti, tc, td)``.  Without ``pattern_to_cat``
    every pattern is the uniform mixture over ``rates`` (Γ); with it,
    pattern ``p`` evolves at ``rates[pattern_to_cat[p]]`` alone (CAT).
    """
    per_rate = [
        [transition_matrix(exchangeabilities, freqs, t * r) for t in lengths]
        for r in rates
    ]
    total = 0.0
    for p, weight in enumerate(weights):
        a, b, c, d = (tip_vector(int(masks[x][p])) for x in range(4))
        mix = range(len(rates)) if pattern_to_cat is None else [int(pattern_to_cat[p])]
        site = 0.0
        for cat in mix:
            pa, pb, pi_, pc, pd = per_rate[cat]
            # x: the state at the node joining C and D; y: at the one
            # joining A and B.
            site += math.fsum(
                freqs[x]
                * pi_[x][y]
                * math.fsum(pa[y][s] * a[s] for s in range(4))
                * math.fsum(pb[y][s] * b[s] for s in range(4))
                * math.fsum(pc[x][s] * c[s] for s in range(4))
                * math.fsum(pd[x][s] * d[s] for s in range(4))
                for x in range(4)
                for y in range(4)
            )
        total += float(weight) * math.log(site / len(mix))
    return total

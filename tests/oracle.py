"""An independent likelihood reference: GTR + rate heterogeneity on four
and five taxa by brute force, in pure Python.

Nothing here imports ``repro.likelihood.gtr`` or
``repro.likelihood.kernels`` — the code under test.  The rate matrix is
built from the six exchangeabilities and the base frequencies, the
transition matrices come from a scaling-and-squaring ``exp(Qt)`` on nested
lists (no eigendecomposition, no NumPy, no BLAS), tip vectors are read off
the 4-bit state masks, and the likelihood is the explicit sum over both
internal states of the unrooted quartet ``((A,B),C,D)`` — over all three
of the five-taxon tree a lazy-SPR insertion forms.  The derivatives of
the quartet's likelihood in one branch length come from the same sum with
that branch's ``P`` replaced by ``dP/dt = rQP`` and ``d²P/dt² = r²QQP``:
the likelihood is linear in each branch's matrix.  The engine, its
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


def transition_matrix_and_derivatives(
    exchangeabilities, freqs, t: float, rate: float = 1.0
) -> tuple[Matrix, Matrix, Matrix]:
    """``(P, dP/dt, d²P/dt²)`` of ``P(t · rate) = exp(Q t rate)``, the
    derivatives as the products ``rate · Q P`` and ``rate² · Q Q P``."""
    q = rate_matrix(exchangeabilities, freqs)
    p = expm([[x * t * rate for x in row] for row in q])
    qp = matmul(q, p)
    return (
        p,
        [[rate * x for x in row] for row in qp],
        [[rate * rate * x for x in row] for row in matmul(q, qp)],
    )


def _across(p: Matrix, tip: list[float]) -> list[float]:
    """A tip vector seen from the far end of its branch: ``P · tip``."""
    return [math.fsum(p[i][s] * tip[s] for s in range(4)) for i in range(4)]


def _quartet_site(freqs, mats, tips) -> float:
    """One pattern's likelihood on ``((A,B),C,D)`` at one rate: ``mats``
    and ``tips`` in A, B, inner, C, D / A, B, C, D order.  x is the state
    at the node joining C and D, y at the one joining A and B."""
    pa, pb, pi_, pc, pd = mats
    a, b, c, d = (_across(p, tip) for p, tip in zip((pa, pb, pc, pd), tips))
    return math.fsum(
        freqs[x] * pi_[x][y] * a[y] * b[y] * c[x] * d[x]
        for x in range(4)
        for y in range(4)
    )


def _pattern_sites(masks, weights, rates, pattern_to_cat, site):
    """``(weight, likelihood)`` of every pattern: ``site(cat, tips)``
    averaged over all categories (Γ) or taken at the pattern's own (CAT,
    ``pattern_to_cat`` given).  ``masks[x][p]`` is taxon ``x``'s state
    mask at pattern ``p``, ``weights[p]`` the pattern's multiplicity."""
    for p, weight in enumerate(weights):
        tips = [tip_vector(int(row[p])) for row in masks]
        mix = range(len(rates)) if pattern_to_cat is None else [int(pattern_to_cat[p])]
        yield float(weight), math.fsum(site(cat, tips) for cat in mix) / len(mix)


def quartet_lnl(
    masks, weights, lengths, exchangeabilities, freqs, rates, pattern_to_cat=None
) -> float:
    """Log-likelihood of the quartet ``((A:ta, B:tb):ti, C:tc, D:td)``.

    ``masks`` holds the taxa in A, B, C, D order and ``lengths`` is
    ``(ta, tb, ti, tc, td)``.  Without ``pattern_to_cat`` every pattern is
    the uniform mixture over ``rates`` (Γ); with it, pattern ``p`` evolves
    at ``rates[pattern_to_cat[p]]`` alone (CAT).
    """
    per_rate = [
        [transition_matrix(exchangeabilities, freqs, t * r) for t in lengths]
        for r in rates
    ]
    return math.fsum(
        weight * math.log(site)
        for weight, site in _pattern_sites(
            masks, weights, rates, pattern_to_cat,
            lambda cat, tips: _quartet_site(freqs, per_rate[cat], tips),
        )
    )


def quartet_edge_derivatives(
    masks, weights, lengths, edge: int, exchangeabilities, freqs, rates,
    pattern_to_cat=None,
) -> tuple[float, float, float]:
    """``(lnL, dlnL/dt, d²lnL/dt²)`` of :func:`quartet_lnl` in the branch
    ``lengths[edge]`` (0...4: A, B, inner, C, D), at that length."""
    per_rate = []  # [cat][order of differentiation] -> the five matrices
    for r in rates:
        mats = [transition_matrix(exchangeabilities, freqs, t * r) for t in lengths]
        per_rate.append([
            mats[:edge] + [moved] + mats[edge + 1 :]
            for moved in transition_matrix_and_derivatives(
                exchangeabilities, freqs, lengths[edge], r
            )
        ])
    by_order = [
        _pattern_sites(
            masks, weights, rates, pattern_to_cat,
            lambda cat, tips, order=order: _quartet_site(freqs, per_rate[cat][order], tips),
        )
        for order in range(3)
    ]
    lnl = d1 = d2 = 0.0
    for (weight, site), (_, dsite), (_, ddsite) in zip(*by_order):
        lnl += weight * math.log(site)
        d1 += weight * dsite / site
        d2 += weight * (ddsite * site - dsite * dsite) / (site * site)
    return lnl, d1, d2


def _quintet_site(freqs, mats, tips) -> float:
    """One pattern's likelihood on ``((T0,T1),T2,(T3,T4))`` at one rate,
    summed over the states x, z, w at its three internal nodes, left to
    right; ``mats`` in ``l0...l6`` order of :func:`quintet_lnl`."""
    p0, p1, p2, p3, p4, p5, p6 = mats
    t0, t1, t2, t3, t4 = (_across(pm, tip) for pm, tip in zip((p0, p1, p3, p4, p5), tips))
    return math.fsum(
        freqs[z] * t2[z] * p2[z][x] * t0[x] * t1[x] * p6[z][w] * t3[w] * t4[w]
        for x in range(4)
        for z in range(4)
        for w in range(4)
    )


def quintet_lnl(
    masks, weights, lengths, exchangeabilities, freqs, rates, pattern_to_cat=None
) -> float:
    """Log-likelihood of ``((T0:l0, T1:l1):l2, T2:l3, (T3:l4, T4:l5):l6)``
    — every unrooted five-taxon tree has this shape.  ``masks`` in
    T0...T4 order, ``lengths`` ``(l0, ..., l6)``."""
    per_rate = [
        [transition_matrix(exchangeabilities, freqs, t * r) for t in lengths]
        for r in rates
    ]
    return math.fsum(
        weight * math.log(site)
        for weight, site in _pattern_sites(
            masks, weights, rates, pattern_to_cat,
            lambda cat, tips: _quintet_site(freqs, per_rate[cat], tips),
        )
    )


def insertion_lnl(
    masks, weights, lengths, edge: int, t_sub: float, exchangeabilities, freqs,
    rates, pattern_to_cat=None,
) -> float:
    """The lazy-SPR insertion score: log-likelihood of the five-taxon tree
    that attaching taxon E by a branch of length ``t_sub`` to the midpoint
    of branch ``edge`` (0...4: A, B, inner, C, D) of the quartet
    ``((A:ta, B:tb):ti, C:tc, D:td)`` forms.  ``masks`` in A, B, C, D, E
    order; ``lengths`` is the quartet's ``(ta, tb, ti, tc, td)``."""
    ta, tb, ti, tc, td = lengths
    a, b, c, d, e = masks
    if edge == 2:  # ((A,B):ti/2, E, (C,D):ti/2)
        order, shape = (a, b, e, c, d), (ta, tb, ti / 2, t_sub, tc, td, ti / 2)
    else:
        # The split leaf and E form one cherry, the leaf's old sibling is
        # the middle taxon, the other pair keeps its cherry across ti.
        (split, t_split), (sibling, t_sibling), far = {
            0: ((a, ta), (b, tb), (c, tc, d, td)),
            1: ((b, tb), (a, ta), (c, tc, d, td)),
            3: ((c, tc), (d, td), (a, ta, b, tb)),
            4: ((d, td), (c, tc), (a, ta, b, tb)),
        }[edge]
        order = (split, e, sibling, far[0], far[2])
        shape = (t_split / 2, t_sub, t_split / 2, t_sibling, far[1], far[3], ti)
    return quintet_lnl(
        order, weights, shape, exchangeabilities, freqs, rates, pattern_to_cat
    )

"""Model-parameter optimisation (Γ shape, GTR exchangeabilities, frequencies).

RAxML optimises model parameters with Brent's method one coordinate at a
time, interleaved with branch-length smoothing.  We do the same with
:func:`_minimize_bounded`, a line-for-line port of SciPy's bounded Brent
method (``minimize_scalar(method="bounded")``): the same steps, tolerances
and evaluation count, so the same ``x``, ``fun`` and ``nfev`` to the bit,
without importing SciPy on the analysis path.
"""

from __future__ import annotations

import math

import numpy as np

from repro.likelihood.engine import LikelihoodEngine, RateModel
from repro.likelihood.gamma import MAX_ALPHA, MIN_ALPHA
from repro.tree.topology import Tree

#: Bounds for individual GTR exchangeabilities during optimisation.
_RATE_LO, _RATE_HI = 1e-3, 100.0

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
#: SciPy's default cap on function evaluations.
_MAXITER = 500


def _minimize_bounded(func, lo: float, hi: float, xatol: float) -> tuple[float, float, int]:
    """Minimise ``func`` on ``[lo, hi]``; returns ``(x, fun, nfev)``.

    Brent's golden-section/parabolic search as SciPy's
    ``_minimize_scalar_bounded`` does it, step for step.
    """
    a, b = lo, hi
    xf = nfc = fulc = a + _GOLDEN_MEAN * (b - a)
    fx = ffulc = fnfc = func(xf)
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e
        # rat is never -0.0, so copysign is SciPy's sign(rat) + (rat == 0).
        x = xf + math.copysign(max(abs(rat), tol1), rat)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXITER:
            break
    return xf, fx, num


def empirical_frequencies(engine: LikelihoodEngine) -> np.ndarray:
    """Observed base frequencies of the alignment (ambiguity-aware).

    Each character contributes its weight split uniformly over its
    compatible states; fully undetermined characters are ignored.  A small
    pseudocount keeps all frequencies strictly positive.
    """
    from repro.seq.encoding import state_likelihood_rows

    pal = engine.pal
    tip_rows = state_likelihood_rows()
    counts = np.zeros(4)
    w = engine.weights
    for taxon in range(pal.n_taxa):
        clv = tip_rows[pal.patterns[taxon]]  # (m, 4)
        nstates = clv.sum(axis=1)
        informative = nstates < 4
        if not np.any(informative):
            continue
        contrib = clv[informative] / nstates[informative, None]
        counts += contrib.T @ w[informative]
    counts += 1e-6
    return counts / counts.sum()


def optimize_alpha(
    engine: LikelihoodEngine,
    tree: Tree,
    lo: float = MIN_ALPHA,
    hi: float = 20.0,
    xtol: float = 1e-3,
) -> tuple[LikelihoodEngine, float]:
    """Optimise the Γ shape parameter; returns ``(new_engine, lnl)``.

    Only meaningful for gamma engines with >= 2 categories; CAT engines
    are returned unchanged.
    """
    rm = engine.rate_model
    if rm.kind != "gamma" or rm.n_categories < 2:
        return engine, engine.loglikelihood(tree)

    k = rm.n_categories
    p_inv = rm.p_invariant

    def neg_lnl(alpha: float) -> float:
        e = engine.with_rate_model(RateModel.gamma(alpha, k, p_invariant=p_inv))
        return -e.loglikelihood(tree)

    best_alpha, fun, _ = _minimize_bounded(neg_lnl, lo, min(hi, MAX_ALPHA), xtol)
    new_engine = engine.with_rate_model(
        RateModel.gamma(best_alpha, k, p_invariant=p_inv)
    )
    return new_engine, -fun


def optimize_p_invariant(
    engine: LikelihoodEngine,
    tree: Tree,
    hi: float = 0.9,
    xtol: float = 1e-3,
) -> tuple[LikelihoodEngine, float]:
    """Optimise the +I proportion of invariant sites (GTR+I+Γ)."""

    def neg_lnl(p: float) -> float:
        e = engine.with_rate_model(engine.rate_model.with_p_invariant(p))
        return -e.loglikelihood(tree)

    best_p, fun, _ = _minimize_bounded(neg_lnl, 0.0, hi, xtol)
    new_engine = engine.with_rate_model(
        engine.rate_model.with_p_invariant(best_p)
    )
    return new_engine, -fun


def optimize_rates(
    engine: LikelihoodEngine,
    tree: Tree,
    xtol: float = 1e-3,
) -> tuple[LikelihoodEngine, float]:
    """Coordinate-wise Brent optimisation of the five free GTR rates."""
    model = engine.model
    rates = list(model.rates)
    best = engine.loglikelihood(tree)
    for i in range(5):  # GT (index 5) is fixed at 1
        def neg_lnl(r: float) -> float:
            trial = rates.copy()
            trial[i] = r
            e = engine.with_model(model.with_rates(trial))
            return -e.loglikelihood(tree)

        r, fun, _ = _minimize_bounded(neg_lnl, _RATE_LO, _RATE_HI, xtol)
        if -fun > best:
            rates[i] = r
            best = -fun
            model = model.with_rates(rates)
    return engine.with_model(model), best


def optimize_model(
    engine: LikelihoodEngine,
    tree: Tree,
    rounds: int = 2,
    optimize_gtr: bool = True,
    optimize_frequencies: bool = True,
    optimize_invariant: bool = False,
    tol: float = 0.01,
) -> tuple[LikelihoodEngine, float]:
    """Interleaved optimisation of frequencies, GTR rates and Γ shape.

    Returns ``(engine, lnl)`` with the improved model.  Branch lengths are
    *not* touched here; callers interleave with
    :func:`repro.likelihood.brlen.optimize_branch_lengths`.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if optimize_frequencies:
        freqs = empirical_frequencies(engine)
        engine = engine.with_model(engine.model.with_freqs(freqs))
    best = engine.loglikelihood(tree)
    for _ in range(rounds):
        before = best
        if optimize_gtr:
            engine, best = optimize_rates(engine, tree)
        engine, best = optimize_alpha(engine, tree)
        if optimize_invariant:
            engine, best = optimize_p_invariant(engine, tree)
        if best - before < tol:
            break
    return engine, best

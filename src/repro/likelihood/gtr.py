"""The general time-reversible (GTR) nucleotide substitution model.

RAxML's default and the model used throughout the paper's benchmarks
(``-m GTRCAT``, with final evaluation under GTRGAMMA).  The model is
parameterised by six exchangeability rates (AC, AG, AT, CG, CT, GT; GT is
conventionally fixed to 1) and four stationary base frequencies.

The rate matrix is diagonalised once per parameter change through the
similarity transform ``B = diag(sqrt(pi)) Q diag(1/sqrt(pi))``, which is
symmetric for reversible models, so transition matrices for any branch
length come from a single cheap ``U exp(Λ t) U⁻¹`` product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.validation import check_probability_vector

#: Exchangeability parameter order used everywhere.
RATE_ORDER = ("AC", "AG", "AT", "CG", "CT", "GT")

# (row, col) index pairs of the upper triangle in RATE_ORDER order.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _spectral_products(
    u: np.ndarray, e: np.ndarray, u_inv: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """``ij,kj,jl->kil``: ``U diag(e_k) U⁻¹`` for every row of ``e``,
    shape ``(k, 4, 4)`` — or ``(n, k, 4, 4)`` for a stack ``(n, k, 4)``
    of such rows, where each (4, 4) product, or each row of the k ≥ 5
    product, is computed as it would be alone; ``pairs`` is
    :meth:`GTRModel._decompose`'s ``(4, 16)`` table
    ``pairs[j, 4i + l] = U[i, j] · U⁻¹[j, l]``.

    The one contraction whose association order depends on a shape.
    The path-optimised three-operand ``einsum`` this replaces bit for bit
    scaled ``U`` by each ``e_k`` and multiplied by ``U⁻¹`` for up to four
    rate multipliers (Γ's categories, a single rate), and from five on
    (the CAT searches' categories, the simulator's rate grid) contracted
    ``e`` against the ``U``/``U⁻¹`` pair products.  The two orders differ
    by rounding (~1e-16), and every pinned result holds one of them, so
    the switch stays where it was: keyed by the number of multipliers,
    never by the stack's row count.
    """
    if e.shape[-2] <= 4:
        return (u * e[..., None, :]) @ u_inv
    return (e.reshape(-1, 4) @ pairs).reshape(*e.shape[:-1], 4, 4)


@dataclass(frozen=True)
class GTRModel:
    """An immutable GTR model instance with cached spectral decomposition.

    Parameters
    ----------
    rates:
        Six exchangeabilities in :data:`RATE_ORDER` order.  They are
        normalised so that GT == 1 (RAxML's convention).
    freqs:
        Stationary base frequencies (A, C, G, T), summing to one.
    """

    rates: tuple[float, ...]
    freqs: tuple[float, ...]
    _spectral: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=np.float64)
        if rates.shape != (6,):
            raise ValueError(f"rates must have 6 entries, got shape {rates.shape}")
        if np.any(rates <= 0):
            raise ValueError("all exchangeability rates must be positive")
        rates = rates / rates[5]  # normalise GT to 1
        freqs = check_probability_vector("freqs", self.freqs)
        if np.any(freqs <= 0):
            raise ValueError("all base frequencies must be strictly positive")
        object.__setattr__(self, "rates", tuple(float(r) for r in rates))
        object.__setattr__(self, "freqs", tuple(float(f) for f in freqs))
        object.__setattr__(self, "_spectral", self._decompose())

    @classmethod
    def jc69(cls) -> "GTRModel":
        """Jukes–Cantor: all rates and frequencies equal (a GTR special case)."""
        return cls(rates=(1.0,) * 6, freqs=(0.25,) * 4)

    @classmethod
    def default(cls) -> "GTRModel":
        """RAxML's starting point: equal rates, empirical-ish frequencies."""
        return cls.jc69()

    # -- spectral machinery ------------------------------------------------

    def _build_q(self) -> np.ndarray:
        """The normalised instantaneous rate matrix Q (rows sum to zero)."""
        pi = np.asarray(self.freqs)
        q = np.zeros((4, 4))
        for rate, (i, j) in zip(self.rates, _PAIRS):
            q[i, j] = rate * pi[j]
            q[j, i] = rate * pi[i]
        np.fill_diagonal(q, -q.sum(axis=1))
        # Normalise so the expected substitution rate at stationarity is 1
        # (branch lengths are then in expected substitutions per site).
        mean_rate = -float(np.dot(pi, np.diag(q)))
        return q / mean_rate

    def _decompose(self):
        pi = np.asarray(self.freqs)
        q = self._build_q()
        sq = np.sqrt(pi)
        b = (q * sq[:, None]) / sq[None, :]
        b = 0.5 * (b + b.T)  # enforce exact symmetry before eigh
        eigvals, v = np.linalg.eigh(b)
        u = v / sq[:, None]  # U = diag(1/sqrt(pi)) V
        u_inv = v.T * sq[None, :]  # U^-1 = V^T diag(sqrt(pi))
        # pairs[j, 4i + l] = U[i, j] U^-1[j, l], see _spectral_products.
        pairs = (u[:, :, None] * u_inv[None]).transpose(1, 0, 2).reshape(4, 16)
        return eigvals, u, u_inv, q, pairs

    @property
    def q_matrix(self) -> np.ndarray:
        """The normalised rate matrix (copy)."""
        return self._spectral[3].copy()

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._spectral[0].copy()

    @property
    def pi(self) -> np.ndarray:
        return np.asarray(self.freqs)

    def transition_matrices(self, t, rates=1.0) -> np.ndarray:
        """P(t * r) for scalar branch length ``t`` and one or more rate
        multipliers ``rates``.

        Returns an array of shape ``(k, 4, 4)`` where ``k = len(rates)``
        (``rates`` may be a scalar, giving ``k == 1``).  Rows sum to one.
        The one-length slice of :meth:`transition_matrix_stack`.
        """
        return self.transition_matrix_stack((t,), rates)[0]

    def transition_matrix_stack(self, lengths, rates=1.0) -> np.ndarray:
        """P(t * r) for every branch length of ``lengths``, shape
        ``(n, k, 4, 4)``: slice ``i`` is, bit for bit, what a stack of
        ``lengths[i]`` alone gives (see :func:`_spectral_products`)."""
        t = np.asarray(lengths, dtype=np.float64)
        if not np.isfinite(t).all():
            raise ValueError(f"branch lengths must be finite, got {t[~np.isfinite(t)][0]}")
        if (t < 0).any():
            raise ValueError(f"branch length must be non-negative, got {t[t < 0][0]}")
        lam, u, u_inv, _, pairs = self._spectral
        r = np.atleast_1d(np.asarray(rates, dtype=np.float64))
        if np.any(r < 0):
            raise ValueError("rate multipliers must be non-negative")
        # exp(lam * t * r): shape (n, k, 4)
        e = np.exp((t[:, None] * r)[..., None] * lam)
        p = _spectral_products(u, e, u_inv, pairs)
        # Clamp tiny negative values from roundoff.
        np.maximum(p, 0.0, out=p)
        return p

    def transition_matrix_derivatives(self, t: float, rates=1.0) -> np.ndarray:
        """dP/dt at ``t`` for each rate multiplier; shape ``(k, 4, 4)``."""
        if t < 0:
            raise ValueError(f"branch length must be non-negative, got {t}")
        lam, u, u_inv, _, pairs = self._spectral
        r = np.atleast_1d(np.asarray(rates, dtype=np.float64))
        e = np.exp(np.outer(r * t, lam)) * (r[:, None] * lam[None, :])
        return _spectral_products(u, e, u_inv, pairs)

    def with_rates(self, rates) -> "GTRModel":
        return GTRModel(tuple(rates), self.freqs)

    def with_freqs(self, freqs) -> "GTRModel":
        return GTRModel(self.rates, tuple(freqs))

"""Privacy amplification by subsampling without replacement.

Implements the bound of Wang, Balle & Kasiviswanathan (2019) that the paper
restates as Theorem 4: if a mechanism satisfies ``(α, ε(α))``-RDP, then its
composition with without-replacement subsampling at rate ``γ`` satisfies
``(α, ε'(α))``-RDP with

``ε'(α) ≤ 1/(α-1) · log(1 + γ² C(α,2) min{4(e^{ε(2)}-1),
e^{ε(2)} min{2, (e^{ε(∞)}-1)²}} + Σ_{j=3..α} γ^j C(α,j) e^{(j-1)ε(j)}
min{2, (e^{ε(∞)}-1)^j})``

The bound only applies at integer α ≥ 2; for non-integer α we interpolate
linearly between the neighbouring integers (the standard practice in RDP
accountant implementations), and for α below 2 we fall back to the value at
α = 2, which is an upper bound because subsampled RDP is non-decreasing
in α.

``ε(∞)`` is unbounded for the Gaussian mechanism, so the ``min{2, ...}``
terms resolve to 2 — the form actually used by the accountant.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import lru_cache
from math import exp, expm1, inf, log

import numpy as np

from ..exceptions import PrivacyError

__all__ = ["subsampled_rdp", "subsampled_gaussian_rdp_curve"]


def _log_comb(n: int, k: int) -> float:
    """``log C(n, k)`` computed through lgamma to avoid huge integers."""
    from math import lgamma

    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def _subsampled_rdp_integer(
    alpha: int,
    sampling_rate: float,
    rdp_at: Callable[[float], float],
    eps_infinity: float,
) -> float:
    """The Theorem-4 bound at an integer order ``alpha >= 2``.

    All terms are accumulated in log space: at large α (several hundred) the
    raw terms ``C(α,j) e^{(j-1)ε(j)}`` overflow double precision even though
    the final bound is moderate.
    """
    gamma = sampling_rate
    eps2 = rdp_at(2.0)

    if np.isinf(eps_infinity):
        inf_term_sq = 2.0
    else:
        inf_term_sq = min(2.0, expm1(eps_infinity) ** 2)

    try:
        second_order = min(4.0 * expm1(eps2), exp(eps2) * inf_term_sq)
    except OverflowError:
        # e^{ε(2)} exceeds a double (σ of a few hundredths): the bound is
        # vacuous, and subsampled_rdp falls back to the unamplified ε(α)
        return inf
    log_terms = []
    if second_order > 0:
        log_terms.append(2.0 * log(gamma) + _log_comb(alpha, 2) + log(second_order))

    for j in range(3, alpha + 1):
        if np.isinf(eps_infinity):
            log_inf_term_j = log(2.0)
        else:
            log_inf_term_j = min(log(2.0), j * log(max(expm1(eps_infinity), 1e-300)))
        log_terms.append(
            j * log(gamma)
            + _log_comb(alpha, j)
            + (j - 1) * rdp_at(float(j))
            + log_inf_term_j
        )

    if not log_terms:
        return 0.0
    # log(1 + Σ exp(t)) computed stably: logaddexp(0, logsumexp(terms)).
    log_sum = float(np.logaddexp.reduce(np.asarray(log_terms, dtype=float)))
    log_one_plus = float(np.logaddexp(0.0, log_sum))
    return log_one_plus / (alpha - 1)


def subsampled_rdp(
    alpha: float,
    sampling_rate: float,
    rdp_at: Callable[[float], float],
    eps_infinity: float = inf,
) -> float:
    """Amplified RDP ``ε'(α)`` of a subsampled mechanism (Theorem 4).

    Parameters
    ----------
    alpha:
        Rényi order (must be > 1).
    sampling_rate:
        ``γ = m / n`` of the without-replacement subsample.
    rdp_at:
        Function returning the *base* mechanism's RDP ``ε(α)`` at any order.
    eps_infinity:
        ``ε(∞)`` of the base mechanism; ``inf`` for the Gaussian mechanism.
    """
    if alpha <= 1:
        raise PrivacyError(f"alpha must be > 1, got {alpha}")
    if not 0 < sampling_rate <= 1:
        raise PrivacyError(f"sampling_rate must be in (0, 1], got {sampling_rate}")

    if sampling_rate == 1.0:
        return rdp_at(alpha)

    lower = max(2, int(np.floor(alpha)))
    upper = max(2, int(np.ceil(alpha)))
    eps_lower = _subsampled_rdp_integer(lower, sampling_rate, rdp_at, eps_infinity)
    if lower == upper:
        amplified = eps_lower
    else:
        eps_upper = _subsampled_rdp_integer(upper, sampling_rate, rdp_at, eps_infinity)
        frac = (alpha - lower) / (upper - lower)
        amplified = (1 - frac) * eps_lower + frac * eps_upper
    # Amplification never hurts: the subsampled mechanism is at least as
    # private as the base mechanism run on the full data.
    return min(amplified, rdp_at(alpha))


def subsampled_gaussian_rdp_curve(
    noise_multiplier: float,
    sampling_rate: float,
    alphas: Sequence[float],
) -> np.ndarray:
    """Per-step RDP curve of the subsampled Gaussian mechanism.

    Convenience wrapper used by the accountant: evaluates
    :func:`subsampled_rdp` over an α grid with the Gaussian base curve
    ``ε(α) = α / (2σ²)``.  A curve costs ~15 ms on the default grid, so it
    is memoised per (σ, γ, α grid); every call returns its own copy.
    """
    if noise_multiplier <= 0:
        raise PrivacyError(f"noise_multiplier must be positive, got {noise_multiplier}")
    return _gaussian_rdp_curve(
        float(noise_multiplier), float(sampling_rate), tuple(float(a) for a in alphas)
    ).copy()


@lru_cache(maxsize=128)
def _gaussian_rdp_curve(
    noise_multiplier: float, sampling_rate: float, alphas: tuple[float, ...]
) -> np.ndarray:
    def rdp_at(order: float) -> float:
        return order / (2.0 * noise_multiplier**2)

    return np.array(
        [subsampled_rdp(a, sampling_rate, rdp_at) for a in alphas], dtype=float
    )

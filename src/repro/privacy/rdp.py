"""Rényi differential privacy primitives.

This module implements the RDP quantities the paper relies on:

* the Gaussian-mechanism RDP curve ``ε(α) = α S² / (2σ²)``
  (Mironov 2017, Corollary 3),
* the Moments Accountant bound of the DPGGAN / DPGVAE baselines written as
  an RDP curve (:func:`moments_rdp_curve`),
* sequential composition (sum of per-step ε at each α),
* the RDP → (ε, δ)-DP conversion of Theorem 1:
  ``ε_DP = ε_RDP + log(1/δ) / (α - 1)``, minimised over the α grid,
* the inverse problem (given a target ε_DP and δ, the admissible per-α RDP
  budget), used to stop training when the budget is exhausted.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..exceptions import PrivacyError

__all__ = [
    "DEFAULT_ALPHA_GRID",
    "MOMENTS_ALPHAS",
    "gaussian_rdp",
    "moments_rdp_curve",
    "compose_rdp",
    "rdp_to_dp",
    "dp_to_rdp_budget",
]

# A standard α grid: dense between 1 and 64, then sparser up to 512.
DEFAULT_ALPHA_GRID: tuple[float, ...] = tuple(
    [*(1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 3.0, 3.5, 4.0, 4.5),
     *range(5, 64),
     *(64, 80, 96, 128, 160, 192, 256, 320, 384, 512)]
)

#: The orders of the Moments Accountant: α = λ + 1 for the moment orders
#: λ = 1..32 that Abadi et al. (2016) track.
MOMENTS_ALPHAS: tuple[float, ...] = tuple(float(lam + 1) for lam in range(1, 33))


def _validate_alphas(alphas: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(alphas), dtype=float)
    if arr.size == 0:
        raise PrivacyError("alpha grid must not be empty")
    if np.any(arr <= 1.0):
        raise PrivacyError("all alpha orders must be > 1")
    return arr


def gaussian_rdp(
    noise_multiplier: float,
    alphas: Sequence[float] = DEFAULT_ALPHA_GRID,
    sensitivity: float = 1.0,
) -> np.ndarray:
    """RDP curve of one Gaussian-mechanism application.

    ``ε(α) = α · S² / (2 σ²)`` where ``σ`` is expressed in units of the
    sensitivity (i.e. the noise std is ``σ · S``).
    """
    if noise_multiplier <= 0:
        raise PrivacyError(f"noise_multiplier must be positive, got {noise_multiplier}")
    if sensitivity <= 0:
        raise PrivacyError(f"sensitivity must be positive, got {sensitivity}")
    arr = _validate_alphas(alphas)
    # Noise std is σ·S, so ε(α) = α S² / (2 (σ S)²) = α / (2 σ²): the
    # sensitivity cancels once the noise is calibrated to it.
    return arr / (2.0 * noise_multiplier**2)


def moments_rdp_curve(
    noise_multiplier: float,
    sampling_rate: float,
    alphas: Sequence[float] = MOMENTS_ALPHAS,
) -> np.ndarray:
    """Per-step RDP curve of the Moments Accountant (Abadi et al. 2016).

    DPGGAN and DPGVAE account with the Moments Accountant.  It tracks the
    log moments of the privacy loss of the sampled Gaussian mechanism, with
    the widely used closed-form bound
    ``α(λ) ≤ q² λ (λ + 1) / ((1 - q) σ²)`` at sampling rate ``q`` and noise
    multiplier ``σ``.  The bound is valid for small ``q`` and ``σ ≥ 1``.
    Moments add under composition, and the conversion to (ε, δ)-DP is
    ``ε = min_λ (T α(λ) + log(1/δ)) / λ``.

    That conversion is :func:`rdp_to_dp` at the order ``α = λ + 1`` with
    ``RDP(α) = α(λ) / λ = q² α / ((1 - q) σ²)``, which is the curve returned
    here.  At ``q = 1`` there is no subsampling and the curve is the plain
    Gaussian :func:`gaussian_rdp`.  Evaluate it on :data:`MOMENTS_ALPHAS` to
    reproduce the accountant the baselines used.  It is not looser than the
    Theorem-4 curve of :mod:`~repro.privacy.subsampling`: at σ = 5,
    δ = 1e-5 and ε = 3.5 it admits 818 steps against 147 at q = 0.08, and
    17 against 11 at q = 0.43.
    """
    if noise_multiplier <= 0:
        raise PrivacyError(f"noise_multiplier must be positive, got {noise_multiplier}")
    if not 0 < sampling_rate <= 1:
        raise PrivacyError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
    if sampling_rate == 1.0:
        return gaussian_rdp(noise_multiplier, alphas)
    q = sampling_rate
    return q**2 * _validate_alphas(alphas) / ((1.0 - q) * noise_multiplier**2)


def compose_rdp(curves: Iterable[np.ndarray]) -> np.ndarray:
    """Sequentially compose RDP curves (element-wise sum over the α grid)."""
    total: np.ndarray | None = None
    for curve in curves:
        curve = np.asarray(curve, dtype=float)
        if total is None:
            total = curve.copy()
        else:
            if curve.shape != total.shape:
                raise PrivacyError("all RDP curves must share the same alpha grid")
            total += curve
    if total is None:
        raise PrivacyError("compose_rdp needs at least one curve")
    return total


def rdp_to_dp(
    rdp_curve: Sequence[float],
    alphas: Sequence[float],
    delta: float,
) -> tuple[float, float]:
    """Convert an RDP curve to an (ε, δ)-DP guarantee (Theorem 1).

    Returns the pair ``(epsilon, best_alpha)`` minimising
    ``ε(α) + log(1/δ) / (α - 1)`` over the α grid.
    """
    if not 0 < delta < 1:
        raise PrivacyError(f"delta must be in (0, 1), got {delta}")
    alphas_arr = _validate_alphas(alphas)
    rdp_arr = np.asarray(list(rdp_curve), dtype=float)
    if rdp_arr.shape != alphas_arr.shape:
        raise PrivacyError(
            f"rdp_curve and alphas must align, got {rdp_arr.shape} vs {alphas_arr.shape}"
        )
    eps = rdp_arr + np.log(1.0 / delta) / (alphas_arr - 1.0)
    best = int(np.argmin(eps))
    return float(eps[best]), float(alphas_arr[best])


def dp_to_rdp_budget(
    target_epsilon: float,
    delta: float,
    alphas: Sequence[float] = DEFAULT_ALPHA_GRID,
) -> np.ndarray:
    """Per-α RDP budget implied by a target (ε, δ)-DP guarantee.

    For each α the admissible RDP spend is
    ``ε_RDP(α) = ε_DP - log(1/δ) / (α - 1)`` (negative values mean that α can
    never certify the target and are clamped to 0).  Training may continue as
    long as the accumulated RDP stays below this budget at *some* α.
    """
    if target_epsilon <= 0:
        raise PrivacyError(f"target_epsilon must be positive, got {target_epsilon}")
    if not 0 < delta < 1:
        raise PrivacyError(f"delta must be in (0, 1), got {delta}")
    alphas_arr = _validate_alphas(alphas)
    budget = target_epsilon - np.log(1.0 / delta) / (alphas_arr - 1.0)
    return np.maximum(budget, 0.0)

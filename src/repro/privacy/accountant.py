"""The RDP privacy accountant used by SE-PrivGEmb (Algorithm 2, lines 8-10).

Each private SGD step applies the subsampled Gaussian mechanism with
sampling rate ``γ = B / |GS|``.  The accountant accumulates the per-step RDP
curve over an α grid, converts to (ε, δ)-DP after every step, and reports
when the target budget would be exceeded so training can stop.

:func:`max_steps_within` is the one "largest T with ε(T) ≤ target" search.
The accountant, the persistent ledger and the DPGGAN / DPGVAE baselines
each hand it their per-step curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..exceptions import PrivacyError
from .rdp import DEFAULT_ALPHA_GRID, _validate_alphas, rdp_to_dp
from .subsampling import subsampled_gaussian_rdp_curve

__all__ = ["PrivacySpent", "RdpAccountant", "max_steps_within"]


def max_steps_within(
    per_step_rdp: np.ndarray,
    alphas: Sequence[float],
    target_epsilon: float,
    delta: float,
    *,
    spent_rdp: np.ndarray | None = None,
    limit: int = 1_000_000,
) -> int:
    """Largest step count ``T ≤ limit`` whose ε stays at or below the target.

    The ε of ``T`` steps is :func:`rdp_to_dp` of ``spent_rdp + T ·
    per_step_rdp``, where ``spent_rdp`` is the curve already composed (none
    by default).  ε grows with ``T``, so the count is found by doubling,
    then bisection.  Returns 0 when the first step already breaks the
    target.
    """
    if target_epsilon <= 0:
        raise PrivacyError(f"target_epsilon must be positive, got {target_epsilon}")

    def fits(steps: int) -> bool:
        curve = steps * per_step_rdp
        if spent_rdp is not None:
            curve = spent_rdp + curve
        return rdp_to_dp(curve, alphas, delta)[0] <= target_epsilon

    if not fits(1):
        return 0
    lo, hi = 1, 1
    while hi < limit and fits(hi):
        lo, hi = hi, hi * 2
    hi = min(hi, limit)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


@dataclass(frozen=True)
class PrivacySpent:
    """A snapshot of the privacy loss after some number of steps."""

    epsilon: float
    delta: float
    best_alpha: float
    steps: int

    def __str__(self) -> str:
        return (
            f"(ε={self.epsilon:.4f}, δ={self.delta:.1e}) after {self.steps} steps "
            f"(best α={self.best_alpha:g})"
        )


class RdpAccountant:
    """Track RDP of repeated subsampled-Gaussian steps and convert to (ε, δ)-DP.

    Parameters
    ----------
    noise_multiplier:
        ``σ`` of the Gaussian mechanism (noise std in sensitivity units).
    sampling_rate:
        ``γ`` of the without-replacement subsample, i.e. ``B / |GS|``.
    alphas:
        Rényi orders to track; defaults to a standard dense grid.
    """

    def __init__(
        self,
        noise_multiplier: float,
        sampling_rate: float,
        alphas: Sequence[float] = DEFAULT_ALPHA_GRID,
    ) -> None:
        if noise_multiplier <= 0:
            raise PrivacyError(f"noise_multiplier must be positive, got {noise_multiplier}")
        if not 0 < sampling_rate <= 1:
            raise PrivacyError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
        self.noise_multiplier = float(noise_multiplier)
        self.sampling_rate = float(sampling_rate)
        self.alphas = _validate_alphas(alphas)
        self._per_step_curve = subsampled_gaussian_rdp_curve(
            self.noise_multiplier, self.sampling_rate, self.alphas
        )
        self._total_curve = np.zeros_like(self._per_step_curve)
        self._steps = 0
        #: set by PrivacyLedger.attach — a ledger-bound accountant must
        #: never forget spent budget (the ledger is the durable record)
        self._ledger_attached = False

    # ------------------------------------------------------------------ #
    @property
    def steps(self) -> int:
        """Number of accounted steps so far."""
        return self._steps

    @property
    def per_step_rdp(self) -> np.ndarray:
        """The (amplified) RDP curve of a single step."""
        return self._per_step_curve.copy()

    @property
    def total_rdp(self) -> np.ndarray:
        """The composed RDP curve after all accounted steps."""
        return self._total_curve.copy()

    def step(self, count: int = 1) -> None:
        """Account for ``count`` additional private steps.

        The composed curve is maintained as ``steps * per_step_curve`` rather
        than by accumulation, so it is bit-for-bit independent of how the
        steps were batched — stepping 1-by-1 or in one ``step(T)`` call land
        on the identical curve (and therefore the identical reported ε).
        This also keeps :meth:`get_privacy_spent` exactly consistent with
        the hypothetical projections (:meth:`epsilon_after`,
        :meth:`max_steps`), which always used the multiplicative form.
        """
        if count < 0:
            raise PrivacyError(f"count must be non-negative, got {count}")
        self._steps += count
        self._total_curve = self._steps * self._per_step_curve

    def get_privacy_spent(self, delta: float) -> PrivacySpent:
        """Return the (ε, δ)-DP guarantee implied by the steps so far."""
        if self._steps == 0:
            return PrivacySpent(epsilon=0.0, delta=delta, best_alpha=float("nan"), steps=0)
        epsilon, best_alpha = rdp_to_dp(self._total_curve, self.alphas, delta)
        return PrivacySpent(
            epsilon=epsilon, delta=delta, best_alpha=best_alpha, steps=self._steps
        )

    def epsilon_after(self, steps: int, delta: float) -> float:
        """ε after a hypothetical total of ``steps`` steps (without mutating state)."""
        if steps < 0:
            raise PrivacyError(f"steps must be non-negative, got {steps}")
        if steps == 0:
            return 0.0
        curve = steps * self._per_step_curve
        epsilon, _ = rdp_to_dp(curve, self.alphas, delta)
        return epsilon

    def delta_after(self, steps: int, target_epsilon: float) -> float:
        """Smallest δ certifiable for ``target_epsilon`` after ``steps`` steps.

        This is the ``get privacy spent given the target ε`` operation of
        Algorithm 2 line 9: training stops once this δ exceeds the configured
        failure probability.  Uses the conversion
        ``δ(α) = exp((α-1)(ε_RDP(α) - ε_target))`` minimised over α, and
        clamped to 1: a probability bound above 1 certifies nothing more.
        """
        if target_epsilon <= 0:
            raise PrivacyError(f"target_epsilon must be positive, got {target_epsilon}")
        if steps < 0:
            raise PrivacyError(f"steps must be non-negative, got {steps}")
        if steps == 0:
            return 0.0
        curve = steps * self._per_step_curve
        log_deltas = (self.alphas - 1.0) * (curve - target_epsilon)
        return float(np.exp(min(0.0, float(np.min(log_deltas)))))

    def max_steps(self, target_epsilon: float, delta: float, limit: int = 1_000_000) -> int:
        """Largest number of steps whose ε stays at or below ``target_epsilon``.

        ``limit`` bounds the search (:func:`max_steps_within`).
        """
        return max_steps_within(
            self._per_step_curve, self.alphas, target_epsilon, delta, limit=limit
        )

    def would_exceed(self, target_epsilon: float, delta: float) -> bool:
        """Return ``True`` if accounting one more step would exceed the target ε."""
        return self.epsilon_after(self._steps + 1, delta) > target_epsilon

    def reset(self) -> None:
        """Forget all accounted steps.

        The mechanism invocations already happened — resetting the counter
        does not un-spend the privacy loss, it only stops *reporting* it.
        Discarding a non-zero count therefore warns, and an accountant
        attached to a :class:`~repro.privacy.ledger.PrivacyLedger` refuses
        outright: the ledger is the durable record of spend and must never
        diverge from the live accountant underneath it.
        """
        if self._ledger_attached:
            raise PrivacyError(
                "this accountant is attached to a persistent privacy ledger; "
                "resetting would discard budget the ledger is recording — refusing"
            )
        if self._steps:
            warnings.warn(
                f"RdpAccountant.reset() discards {self._steps} accounted steps; "
                "the privacy loss already incurred does not reset",
                RuntimeWarning,
                stacklevel=2,
            )
        self._total_curve = np.zeros_like(self._per_step_curve)
        self._steps = 0

    def __repr__(self) -> str:
        return (
            f"RdpAccountant(noise_multiplier={self.noise_multiplier}, "
            f"sampling_rate={self.sampling_rate:.4g}, steps={self._steps})"
        )

"""Tests for RDP curves, subsampling amplification and the accountants."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import PrivacyError
from repro.privacy import (
    DEFAULT_ALPHA_GRID,
    MOMENTS_ALPHAS,
    PrivacyLedger,
    RdpAccountant,
    compose_rdp,
    dp_to_rdp_budget,
    gaussian_rdp,
    max_steps_within,
    moments_rdp_curve,
    rdp_to_dp,
    subsampled_rdp,
)
from repro.privacy import subsampling
from repro.privacy.subsampling import subsampled_gaussian_rdp_curve


class TestGaussianRdp:
    def test_linear_in_alpha(self):
        alphas = [2.0, 4.0, 8.0]
        curve = gaussian_rdp(5.0, alphas)
        np.testing.assert_allclose(curve, np.array(alphas) / 50.0)

    def test_more_noise_means_less_epsilon(self):
        low_noise = gaussian_rdp(1.0, [2.0])[0]
        high_noise = gaussian_rdp(10.0, [2.0])[0]
        assert high_noise < low_noise

    def test_rejects_invalid_inputs(self):
        with pytest.raises(PrivacyError):
            gaussian_rdp(0.0, [2.0])
        with pytest.raises(PrivacyError):
            gaussian_rdp(1.0, [0.5])
        with pytest.raises(PrivacyError):
            gaussian_rdp(1.0, [])


class TestComposition:
    def test_compose_sums_curves(self):
        a = np.array([0.1, 0.2])
        b = np.array([0.3, 0.4])
        np.testing.assert_allclose(compose_rdp([a, b]), [0.4, 0.6])

    def test_compose_rejects_mismatched_grids(self):
        with pytest.raises(PrivacyError):
            compose_rdp([np.array([0.1]), np.array([0.1, 0.2])])

    def test_compose_rejects_empty(self):
        with pytest.raises(PrivacyError):
            compose_rdp([])


class TestRdpToDp:
    def test_conversion_formula_single_alpha(self):
        eps, alpha = rdp_to_dp([1.0], [2.0], delta=1e-5)
        assert alpha == 2.0
        assert eps == pytest.approx(1.0 + np.log(1e5))

    def test_picks_minimising_alpha(self):
        alphas = [2.0, 10.0, 100.0]
        curve = [0.01 * a for a in alphas]
        eps, best = rdp_to_dp(curve, alphas, delta=1e-5)
        candidates = [c + np.log(1e5) / (a - 1) for c, a in zip(curve, alphas, strict=True)]
        assert eps == pytest.approx(min(candidates))
        assert best in alphas

    def test_budget_inverse_consistency(self):
        budget = dp_to_rdp_budget(2.0, 1e-5, [2.0, 50.0])
        # at alpha=2, almost nothing remains; at alpha=50, most of the budget does
        assert budget[0] == 0.0 or budget[0] < budget[1]

    def test_invalid_delta_raises(self):
        with pytest.raises(PrivacyError):
            rdp_to_dp([1.0], [2.0], delta=0.0)
        with pytest.raises(PrivacyError):
            dp_to_rdp_budget(1.0, 1.5)


class TestSubsampledRdp:
    def _gaussian(self, sigma):
        return lambda alpha: alpha / (2.0 * sigma**2)

    def test_amplification_reduces_epsilon(self):
        rdp_at = self._gaussian(5.0)
        full = rdp_at(4.0)
        amplified = subsampled_rdp(4.0, 0.01, rdp_at)
        assert amplified < full

    def test_no_subsampling_returns_base(self):
        rdp_at = self._gaussian(5.0)
        assert subsampled_rdp(3.0, 1.0, rdp_at) == pytest.approx(rdp_at(3.0))

    def test_monotone_in_sampling_rate(self):
        rdp_at = self._gaussian(5.0)
        small = subsampled_rdp(8.0, 0.001, rdp_at)
        large = subsampled_rdp(8.0, 0.1, rdp_at)
        assert small < large

    def test_never_exceeds_base_curve(self):
        rdp_at = self._gaussian(2.0)
        for alpha in (2.0, 4.0, 16.0, 64.0):
            assert subsampled_rdp(alpha, 0.3, rdp_at) <= rdp_at(alpha) + 1e-12

    def test_large_alpha_grid_is_finite(self):
        curve = subsampled_gaussian_rdp_curve(5.0, 0.1, DEFAULT_ALPHA_GRID)
        assert np.all(np.isfinite(curve))
        assert np.all(curve >= 0)

    def test_invalid_inputs_raise(self):
        rdp_at = self._gaussian(5.0)
        with pytest.raises(PrivacyError):
            subsampled_rdp(1.0, 0.1, rdp_at)
        with pytest.raises(PrivacyError):
            subsampled_rdp(2.0, 0.0, rdp_at)


class TestCurveMemo:
    """One (σ, γ, α grid) curve is computed once per process."""

    @pytest.fixture
    def bound_calls(self, monkeypatch):
        calls = []
        bound = subsampling._subsampled_rdp_integer

        def counting(*args):
            calls.append(args[:2])
            return bound(*args)

        monkeypatch.setattr(subsampling, "_subsampled_rdp_integer", counting)
        subsampling._gaussian_rdp_curve.cache_clear()
        yield calls
        subsampling._gaussian_rdp_curve.cache_clear()

    def test_second_equal_accountant_computes_nothing(self, bound_calls):
        first = RdpAccountant(5.0, 0.042)
        assert bound_calls
        bound_calls.clear()
        second = RdpAccountant(5.0, 0.042)
        assert bound_calls == []
        assert second.per_step_rdp.tobytes() == first.per_step_rdp.tobytes()

    def test_callers_get_their_own_copy(self, bound_calls):
        curve = subsampled_gaussian_rdp_curve(5.0, 0.042, DEFAULT_ALPHA_GRID)
        curve[:] = -1.0
        again = subsampled_gaussian_rdp_curve(5.0, 0.042, DEFAULT_ALPHA_GRID)
        assert np.all(again > 0)

    def test_ledger_summary_computes_each_curve_at_most_once(self, tmp_path, bound_calls):
        ledger = PrivacyLedger(tmp_path / "ledger.jsonl")
        groups = ((5.0, 0.05, 120), (3.0, 0.1, 30), (4.0, 0.08, 10))
        for sigma, rate, steps in groups:
            ledger.record_fit(
                "fp", method="m", noise_multiplier=sigma, sampling_rate=rate,
                steps=steps, delta=1e-5, epsilon=0.0,
            )
        subsampled_gaussian_rdp_curve(2.0, 0.5, ledger.alphas)
        per_curve = len(bound_calls)
        bound_calls.clear()
        ledger.summary()
        ledger.summary()
        ledger.total_spent()
        by_rate = Counter(rate for _, rate in bound_calls)
        assert by_rate == {rate: per_curve for _, rate, _ in groups}


class TestRdpAccountant:
    def test_epsilon_grows_with_steps(self):
        acc = RdpAccountant(noise_multiplier=5.0, sampling_rate=0.05)
        acc.step(10)
        eps_10 = acc.get_privacy_spent(1e-5).epsilon
        acc.step(90)
        eps_100 = acc.get_privacy_spent(1e-5).epsilon
        assert 0 < eps_10 < eps_100
        assert acc.steps == 100

    def test_zero_steps_zero_epsilon(self):
        acc = RdpAccountant(5.0, 0.1)
        spent = acc.get_privacy_spent(1e-5)
        assert spent.epsilon == 0.0
        assert spent.steps == 0

    def test_epsilon_after_matches_stepping(self):
        acc = RdpAccountant(5.0, 0.1)
        predicted = acc.epsilon_after(25, 1e-5)
        acc.step(25)
        assert acc.get_privacy_spent(1e-5).epsilon == pytest.approx(predicted)

    def test_max_steps_consistency(self):
        acc = RdpAccountant(5.0, 0.08)
        max_steps = acc.max_steps(3.5, 1e-5)
        assert max_steps > 0
        assert acc.epsilon_after(max_steps, 1e-5) <= 3.5
        assert acc.epsilon_after(max_steps + 1, 1e-5) > 3.5

    def test_max_steps_monotone_in_epsilon(self):
        acc = RdpAccountant(5.0, 0.08)
        budgets = [acc.max_steps(e, 1e-5) for e in (0.5, 1.5, 2.5, 3.5)]
        assert budgets == sorted(budgets)
        assert budgets[0] < budgets[-1]

    def test_would_exceed_and_reset(self):
        acc = RdpAccountant(5.0, 0.2)
        limit = acc.max_steps(0.5, 1e-5)
        acc.step(limit)
        assert acc.would_exceed(0.5, 1e-5)
        with pytest.warns(RuntimeWarning, match="discards"):
            acc.reset()
        assert acc.steps == 0
        assert not acc.would_exceed(0.5, 1e-5) or limit == 0

    def test_delta_after_monotone_in_steps(self):
        acc = RdpAccountant(5.0, 0.1)
        d1 = acc.delta_after(5, target_epsilon=1.0)
        d2 = acc.delta_after(50, target_epsilon=1.0)
        assert d1 <= d2

    def test_delta_after_is_a_probability(self):
        # unclamped, this δ is 2.4e271, and larger inputs overflow a double
        acc = RdpAccountant(0.5, 0.5)
        assert acc.delta_after(1000, 0.5) == 1.0
        assert acc.delta_after(10**9, 1e-3) == 1.0
        assert 0.0 < RdpAccountant(5.0, 0.1).delta_after(20, 3.5) < 1.0

    def test_tiny_noise_gives_a_huge_epsilon_not_an_overflow(self):
        # at σ = 0.01, e^{ε(2)} = e^{10^4} does not fit in a double
        tiny = RdpAccountant(noise_multiplier=0.01, sampling_rate=0.4)
        tiny.step(10)
        epsilon = tiny.get_privacy_spent(1e-5).epsilon
        assert not np.isnan(epsilon)
        small = RdpAccountant(noise_multiplier=0.1, sampling_rate=0.4)
        small.step(10)
        assert epsilon > small.get_privacy_spent(1e-5).epsilon
        assert tiny.max_steps(3.5, 1e-5) == 0

    def test_invalid_construction(self):
        with pytest.raises(PrivacyError):
            RdpAccountant(0.0, 0.1)
        with pytest.raises(PrivacyError):
            RdpAccountant(5.0, 1.5)

    def test_empty_alpha_grid_is_refused_at_construction(self):
        with pytest.raises(PrivacyError, match="must not be empty"):
            RdpAccountant(5.0, 0.1, alphas=[])
        with pytest.raises(PrivacyError, match="> 1"):
            RdpAccountant(5.0, 0.1, alphas=[1.0, 2.0])


def _ma_log_moments(sigma, q):
    """Abadi et al.'s per-step bound α(λ) at the moment orders λ = 1..32."""
    lam = np.arange(1, 33, dtype=float)
    rate = q**2 / ((1 - q) * sigma**2) if q < 1 else 1 / (2 * sigma**2)
    return lam, lam * (lam + 1) * rate


def _ma_epsilon_oracle(sigma, q, steps, delta):
    """The MA's ε(T) = min_λ (T α(λ) + log 1/δ) / λ, written out."""
    lam, moments = _ma_log_moments(sigma, q)
    return float(np.min((steps * moments + np.log(1 / delta)) / lam))


def _ma_max_steps_oracle(sigma, q, target, delta, limit=1_000_000):
    """Solve ε(T) ≤ target per λ in closed form, then step to the exact edge."""
    lam, moments = _ma_log_moments(sigma, q)
    solved = np.max(np.floor((lam * target - np.log(1 / delta)) / moments))
    steps = int(min(limit, max(0.0, solved)))
    while steps < limit and _ma_epsilon_oracle(sigma, q, steps + 1, delta) <= target:
        steps += 1
    while steps > 0 and _ma_epsilon_oracle(sigma, q, steps, delta) > target:
        steps -= 1
    return steps


def _ma_epsilon(sigma, q, steps, delta):
    curve = moments_rdp_curve(sigma, q)
    return rdp_to_dp(steps * curve, MOMENTS_ALPHAS, delta)[0]


def _ma_max_steps(sigma, q, target, delta):
    return max_steps_within(moments_rdp_curve(sigma, q), MOMENTS_ALPHAS, target, delta)


class TestMomentsAccountant:
    """The Moments Accountant of the baselines as an RDP curve."""

    def test_epsilon_grows_with_steps(self):
        e10 = _ma_epsilon(5.0, 0.05, 10, 1e-5)
        e100 = _ma_epsilon(5.0, 0.05, 100, 1e-5)
        assert 0 < e10 < e100

    def test_get_delta_inverse_relation(self):
        # MA's δ = min_λ exp(T α(λ) − λ ε) is delta_after's conversion at α = λ+1
        acc = RdpAccountant(5.0, 0.1, alphas=MOMENTS_ALPHAS)
        acc.step(20)
        eps = acc.get_privacy_spent(1e-5).epsilon
        assert acc.delta_after(20, eps) <= 1e-5 * 1.01

    def test_max_steps_positive_and_consistent(self):
        steps = _ma_max_steps(5.0, 0.05, 1.0, 1e-5)
        assert steps > 0
        assert _ma_epsilon(5.0, 0.05, steps, 1e-5) <= 1.0
        assert _ma_epsilon(5.0, 0.05, steps + 1, 1e-5) > 1.0

    def test_max_steps_shrinks_with_sampling_rate_and_budget(self):
        """Larger sampling rates or smaller budgets certify fewer MA steps.

        This is not what makes the DPGGAN/DPGVAE baselines stop early: MA
        is the more permissive bound (3,148 steps against the Theorem-4
        curve's 783 at σ = 5, γ = 0.042, ε = 3.5).  Their early stop comes
        from the halved budget and the ``epochs`` cap.
        """
        assert _ma_max_steps(5.0, 0.5, 1.0, 1e-5) <= _ma_max_steps(5.0, 0.05, 1.0, 1e-5)
        assert _ma_max_steps(5.0, 0.2, 0.5, 1e-5) <= _ma_max_steps(5.0, 0.2, 3.5, 1e-5)

    def test_invalid_inputs(self):
        with pytest.raises(PrivacyError):
            moments_rdp_curve(0.0, 0.1)
        with pytest.raises(PrivacyError):
            moments_rdp_curve(0.0, 1.0)
        with pytest.raises(PrivacyError):
            moments_rdp_curve(5.0, 0.0)
        curve = moments_rdp_curve(5.0, 0.1)
        with pytest.raises(PrivacyError):
            max_steps_within(curve, MOMENTS_ALPHAS, 1.0, 0.0)
        with pytest.raises(PrivacyError):
            max_steps_within(curve, MOMENTS_ALPHAS, -1.0, 1e-5)

    def test_orders_are_the_moment_orders_plus_one(self):
        assert MOMENTS_ALPHAS == tuple(float(lam) for lam in range(2, 34))
        np.testing.assert_array_equal(
            moments_rdp_curve(5.0, 1.0), gaussian_rdp(5.0, MOMENTS_ALPHAS)
        )

    @pytest.mark.parametrize("delta", [1e-5, 1e-6])
    def test_matches_the_written_out_moments_accountant(self, delta):
        for sigma in (0.5, 0.7, 1.0, 2.0, 5.0, 10.0, 50.0):
            for q in (0.01, 0.05, 0.1, 0.2, 0.5, 0.9, 1.0):
                for target in (0.1, 0.5, 1.0, 1.75, 3.5, 10.0):
                    expected = _ma_max_steps_oracle(sigma, q, target, delta)
                    assert _ma_max_steps(sigma, q, target, delta) == expected
                for steps in (1, 7, 100, 2000):
                    assert _ma_epsilon(sigma, q, steps, delta) == pytest.approx(
                        _ma_epsilon_oracle(sigma, q, steps, delta), rel=1e-15
                    )


class TestStepSearch:
    def test_limit_caps_the_search(self):
        curve = gaussian_rdp(1000.0, DEFAULT_ALPHA_GRID)
        assert max_steps_within(curve, DEFAULT_ALPHA_GRID, 3.5, 1e-5, limit=37) == 37

    def test_ledger_remaining_steps_after_two_prior_groups(self, tmp_path):
        ledger = PrivacyLedger(tmp_path / "ledger.jsonl")
        for sigma, rate, steps in ((5.0, 0.05, 120), (3.0, 0.1, 30)):
            ledger.record_fit(
                "fp", method="m", noise_multiplier=sigma, sampling_rate=rate,
                steps=steps, delta=1e-5, epsilon=0.0,
            )
        mechanism = {"noise_multiplier": 4.0, "sampling_rate": 0.08}
        remaining = ledger.remaining_steps(3.5, 1e-5, **mechanism)
        assert remaining > 0
        assert ledger.epsilon_with(1e-5, steps=remaining, **mechanism) <= 3.5
        assert ledger.epsilon_with(1e-5, steps=remaining + 1, **mechanism) > 3.5
        assert ledger.check_admission(3.5, 1e-5, **mechanism) == remaining


class TestTheorem4Looseness:
    """Where the Theorem-4 subsampling bound stops amplifying.

    For j ≥ 3 its terms tend to 2γʲC(α,j) as σ grows, so the amplified
    per-step curve has a floor that does not depend on σ.  Past the σ where
    that floor meets the unamplified Gaussian α/(2σ²), subsampling buys
    nothing and ε no longer depends on γ.
    """

    def test_per_step_curve_floor_at_alpha_8(self):
        def at(sigma):
            return subsampled_gaussian_rdp_curve(sigma, 0.042, [8.0])[0]

        # the small-γ rate 2γ²α/σ² would be 1.13e-3 at σ = 5
        assert at(5.0) == pytest.approx(2.548e-3, rel=1e-3)
        assert at(10.0) == pytest.approx(1.565e-3, rel=1e-3)
        # the floor is above the unamplified curve, which the min() returns
        assert at(1000.0) == 8.0 / (2.0 * 1000.0**2) == 4e-6

    def test_epsilon_at_sigma_40_does_not_depend_on_the_sampling_rate(self):
        epsilons = [
            RdpAccountant(40.0, rate).epsilon_after(1000, 1e-5)
            for rate in (0.084, 0.338, 1.0)
        ]
        assert epsilons[0] == epsilons[1] == epsilons[2]
        assert epsilons[0] == pytest.approx(4.10632, abs=1e-5)

"""Tests for RDP curves, subsampling amplification and the accountants."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PrivacyError
from repro.privacy import (
    DEFAULT_ALPHA_GRID,
    MomentsAccountant,
    RdpAccountant,
    compose_rdp,
    dp_to_rdp_budget,
    gaussian_rdp,
    rdp_to_dp,
    subsampled_rdp,
)
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


class TestMomentsAccountant:
    def test_epsilon_grows_with_steps(self):
        acc = MomentsAccountant(noise_multiplier=5.0, sampling_rate=0.05)
        acc.step(10)
        e10 = acc.get_epsilon(1e-5)
        acc.step(90)
        e100 = acc.get_epsilon(1e-5)
        assert 0 < e10 < e100

    def test_get_delta_inverse_relation(self):
        acc = MomentsAccountant(5.0, 0.1)
        acc.step(20)
        eps = acc.get_epsilon(1e-5)
        assert acc.get_delta(eps) <= 1e-5 * 1.01

    def test_max_steps_positive_and_consistent(self):
        acc = MomentsAccountant(5.0, 0.05)
        steps = acc.max_steps(1.0, 1e-5)
        assert steps >= 0
        if steps > 0:
            fresh = MomentsAccountant(5.0, 0.05)
            fresh.step(steps)
            assert fresh.get_epsilon(1e-5) <= 1.0

    def test_max_steps_shrinks_with_sampling_rate_and_budget(self):
        """Larger sampling rates or smaller budgets certify fewer MA steps.

        This is the mechanism behind the paper's observation that the
        DPGGAN/DPGVAE baselines converge prematurely at small budgets.
        """
        assert MomentsAccountant(5.0, 0.5).max_steps(1.0, 1e-5) <= MomentsAccountant(
            5.0, 0.05
        ).max_steps(1.0, 1e-5)
        assert MomentsAccountant(5.0, 0.2).max_steps(0.5, 1e-5) <= MomentsAccountant(
            5.0, 0.2
        ).max_steps(3.5, 1e-5)

    def test_invalid_inputs(self):
        with pytest.raises(PrivacyError):
            MomentsAccountant(0.0, 0.1)
        acc = MomentsAccountant(5.0, 0.1)
        with pytest.raises(PrivacyError):
            acc.get_epsilon(0.0)
        with pytest.raises(PrivacyError):
            acc.get_delta(-1.0)

"""Tests for the configuration dataclasses."""

from __future__ import annotations

import dataclasses

import pytest

from repro import ConfigurationError, PrivacyConfig, TrainingConfig


class TestPrivacyConfig:
    def test_defaults_match_paper(self):
        config = PrivacyConfig()
        assert config.epsilon == pytest.approx(3.5)
        assert config.delta == pytest.approx(1e-5)
        assert config.noise_multiplier == pytest.approx(5.0)
        assert config.clipping_threshold == pytest.approx(2.0)

    def test_rejects_non_positive_epsilon(self):
        with pytest.raises(ConfigurationError):
            PrivacyConfig(epsilon=0.0)
        with pytest.raises(ConfigurationError):
            PrivacyConfig(epsilon=-1.0)

    def test_rejects_delta_outside_unit_interval(self):
        with pytest.raises(ConfigurationError):
            PrivacyConfig(delta=0.0)
        with pytest.raises(ConfigurationError):
            PrivacyConfig(delta=1.0)

    def test_rejects_bad_noise_and_clipping(self):
        with pytest.raises(ConfigurationError):
            PrivacyConfig(noise_multiplier=0.0)
        with pytest.raises(ConfigurationError):
            PrivacyConfig(clipping_threshold=-2.0)

    def test_rejects_unknown_accountant(self):
        # there is one accountant, so there is no field to choose it
        with pytest.raises(TypeError):
            PrivacyConfig(accountant="rdp")  # type: ignore[call-arg]

    def test_with_epsilon_returns_modified_copy(self):
        config = PrivacyConfig(epsilon=1.0)
        other = config.with_epsilon(2.5)
        assert other.epsilon == pytest.approx(2.5)
        assert config.epsilon == pytest.approx(1.0)
        assert other.delta == config.delta

    def test_to_dict_round_trip(self):
        config = PrivacyConfig(epsilon=2.0, delta=1e-6)
        data = config.to_dict()
        assert data["epsilon"] == pytest.approx(2.0)
        assert data["delta"] == pytest.approx(1e-6)
        assert set(data) == {
            "epsilon",
            "delta",
            "noise_multiplier",
            "clipping_threshold",
        }

    def test_is_frozen(self):
        config = PrivacyConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.epsilon = 1.0  # type: ignore[misc]


class TestTrainingConfig:
    def test_defaults_match_paper(self):
        config = TrainingConfig()
        assert config.embedding_dim == 128
        assert config.batch_size == 128
        assert config.learning_rate == pytest.approx(0.1)
        assert config.negative_samples == 5
        assert config.epochs == 200

    @pytest.mark.parametrize(
        "field,value",
        [
            ("embedding_dim", 0),
            ("batch_size", -1),
            ("learning_rate", 0.0),
            ("negative_samples", 0),
            ("epochs", -5),
        ],
    )
    def test_rejects_non_positive_fields(self, field, value):
        with pytest.raises(ConfigurationError):
            TrainingConfig(**{field: value})

    def test_with_updates_replaces_fields(self):
        config = TrainingConfig(epochs=10)
        other = config.with_updates(epochs=20, batch_size=4)
        assert other.epochs == 20
        assert other.batch_size == 4
        assert config.epochs == 10

    def test_to_dict_contains_all_fields(self):
        config = TrainingConfig(seed=3, extra={"note": "x"})
        data = config.to_dict()
        assert data["seed"] == 3
        assert data["extra"] == {"note": "x"}

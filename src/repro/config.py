"""Configuration dataclasses shared across trainers, baselines and experiments.

Two configuration objects cover the knobs exposed by the paper:

* :class:`PrivacyConfig` — the differential-privacy parameters
  (epsilon, delta, noise multiplier, clipping threshold).
* :class:`TrainingConfig` — the skip-gram / SGD parameters
  (embedding dimension, batch size, learning rate, negative samples,
  number of epochs).

Both validate their fields eagerly so that a bad experiment specification
fails before any expensive work starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Mapping
from typing import Any

from .exceptions import ConfigurationError

__all__ = ["PrivacyConfig", "TrainingConfig"]


@dataclass(frozen=True)
class PrivacyConfig:
    """Differential-privacy parameters used by the private trainers.

    Attributes
    ----------
    epsilon:
        Target privacy budget ``ε``.  Must be positive.
    delta:
        Failure probability ``δ``.  Must be in ``(0, 1)``.
    noise_multiplier:
        Standard deviation multiplier ``σ`` of the Gaussian mechanism.  The
        paper fixes ``σ = 5`` in all experiments.
    clipping_threshold:
        Per-example ℓ2 gradient clipping threshold ``C``.
    """

    epsilon: float = 3.5
    delta: float = 1e-5
    noise_multiplier: float = 5.0
    clipping_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")
        if self.noise_multiplier <= 0:
            raise ConfigurationError(
                f"noise_multiplier must be positive, got {self.noise_multiplier}"
            )
        if self.clipping_threshold <= 0:
            raise ConfigurationError(
                f"clipping_threshold must be positive, got {self.clipping_threshold}"
            )

    def with_epsilon(self, epsilon: float) -> "PrivacyConfig":
        """Return a copy of this config with a different target epsilon."""
        return replace(self, epsilon=epsilon)

    def to_dict(self) -> dict[str, Any]:
        """Return the configuration as a plain dictionary."""
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "noise_multiplier": self.noise_multiplier,
            "clipping_threshold": self.clipping_threshold,
        }


@dataclass(frozen=True)
class TrainingConfig:
    """Skip-gram / SGD hyper-parameters.

    The defaults follow the parameter study in Section VI-B of the paper:
    batch size ``B = 128``, learning rate ``η = 0.1``, clipping ``C = 2``
    (held in :class:`PrivacyConfig`), negative samples ``k = 5`` and
    embedding dimension ``r = 128``.  ``epochs`` defaults to the structural
    equivalence setting (200); link prediction uses 2000 in the paper.
    """

    embedding_dim: int = 128
    batch_size: int = 128
    learning_rate: float = 0.1
    negative_samples: int = 5
    epochs: int = 200
    seed: int | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.embedding_dim <= 0:
            raise ConfigurationError(
                f"embedding_dim must be positive, got {self.embedding_dim}"
            )
        if self.batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.negative_samples <= 0:
            raise ConfigurationError(
                f"negative_samples must be positive, got {self.negative_samples}"
            )
        if self.epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")

    def with_updates(self, **kwargs: Any) -> "TrainingConfig":
        """Return a copy with the provided fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict[str, Any]:
        """Return the configuration as a plain dictionary."""
        return {
            "embedding_dim": self.embedding_dim,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "negative_samples": self.negative_samples,
            "epochs": self.epochs,
            "seed": self.seed,
            "extra": dict(self.extra),
        }

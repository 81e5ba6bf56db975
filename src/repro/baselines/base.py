"""Common interface for the baseline embedding methods.

The experiment runner treats every method — SE-PrivGEmb variants and the
four DP baselines — as "something that maps a graph to an ``|V| × r``
embedding matrix under a privacy budget".  :class:`BaselineEmbedder` adapts
that contract onto the :class:`~repro.models.Embedder` estimator protocol:
``fit(graph)`` returns the fitted estimator (use :attr:`embeddings` /
``embeddings_`` or :meth:`fit_transform` for the matrix itself); concrete
baselines implement :meth:`_fit_embeddings` and document which privacy
mechanism they use and how faithful the simplification is to the published
method.
"""

from __future__ import annotations

import abc

import numpy as np

from ..config import PrivacyConfig, TrainingConfig
from ..exceptions import TrainingError
from ..graph import Graph
from ..models.base import Embedder, FitResult
from ..privacy.accountant import PrivacySpent
from ..utils.rng import ensure_rng

__all__ = ["BaselineEmbedder"]


class BaselineEmbedder(Embedder):
    """A method that produces node embeddings for a graph under a DP budget.

    Parameters
    ----------
    training_config:
        Shared hyper-parameters (embedding dimension, epochs, learning rate).
    privacy_config:
        The (ε, δ) budget and mechanism parameters.  Non-private baselines
        may ignore it.
    seed:
        Seed or generator controlling all randomness of the method.
    compute_dtype:
        Dtype of the *published* embedding matrix (``"float32"`` or
        ``"float64"``, default float64).  The baselines' internal training
        math stays float64, as SE-PrivGEmb's does (only SE-GEmb has a
        float32 compute path), so a float32 baseline is the float64 result
        rounded at release, which keeps the estimator surface uniform
        across all eight registered methods.
    """

    #: registry key; subclasses override.
    name: str = "baseline"

    def __init__(
        self,
        training_config: TrainingConfig | None = None,
        privacy_config: PrivacyConfig | None = None,
        seed: int | np.random.Generator | None = None,
        compute_dtype="float64",
    ) -> None:
        super().__init__()
        from ..engine.workspace import resolve_compute_dtype

        self.training_config = training_config or TrainingConfig()
        self.privacy_config = privacy_config or PrivacyConfig()
        self._seed = seed
        self._rng = ensure_rng(seed)
        self.compute_dtype = resolve_compute_dtype(compute_dtype)

    # ------------------------------------------------------------------ #
    def _fit_rng(self) -> np.random.Generator:
        # a fresh generator from the stored seed per fit: `cls(seed=7)`
        # stays bitwise identical to the pre-estimator behaviour on its
        # first fit, *and* refits are deterministic / unaffected by an
        # earlier per-fit rng override (matching the SE trainers)
        return ensure_rng(self._seed)

    def _fit(self, graph: Graph, rng: np.random.Generator) -> FitResult:
        self._rng = rng
        self._fit_embeddings(graph)
        # These baselines have no step-level accountant to snapshot: each
        # calibrates its mechanism noise so the *whole* release meets the
        # configured (ε, δ) target, so the budget spent is the target by
        # construction.  best_alpha/steps are 0 — "no accountant curve".
        privacy = self.privacy_config
        return FitResult(
            privacy_spent=PrivacySpent(
                epsilon=privacy.epsilon,
                delta=privacy.delta,
                best_alpha=0.0,
                steps=0,
            )
        )

    @abc.abstractmethod
    def _fit_embeddings(self, graph: Graph) -> np.ndarray:
        """Train on ``graph``; call :meth:`_store` with the ``|V| × r`` matrix."""

    @property
    def embeddings(self) -> np.ndarray:
        """The embeddings produced by the last :meth:`fit` call."""
        if self._embeddings is None:
            raise TrainingError(f"{type(self).__name__} has not been fitted yet")
        return self._embeddings

    # ------------------------------------------------------------------ #
    def _output_noise_std(
        self,
        sensitivity: float,
        epsilon: float,
        delta: float | None = None,
    ) -> float:
        """Gaussian-mechanism noise std for releasing a per-node output.

        Uses the classic calibration ``σ = sqrt(2 ln(1.25/δ)) · S / ε``.
        The GAN/VAE baselines release embeddings that are functions of each
        node's own (raw) adjacency row, so the release itself must be
        privatised; the paper's baselines spend part of their budget on
        exactly this kind of output protection.
        """
        if sensitivity <= 0:
            raise TrainingError(f"sensitivity must be positive, got {sensitivity}")
        if epsilon <= 0:
            raise TrainingError(f"epsilon must be positive, got {epsilon}")
        delta = self.privacy_config.delta if delta is None else delta
        return float(np.sqrt(2.0 * np.log(1.25 / delta)) * sensitivity / epsilon)

    def _privatize_output(
        self,
        embeddings: np.ndarray,
        epsilon: float,
        row_clip: float = 1.0,
    ) -> np.ndarray:
        """Clip embedding rows to ``row_clip`` and add output-release noise."""
        embeddings = np.asarray(embeddings, dtype=float)
        norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
        clipped = embeddings / np.maximum(1.0, norms / row_clip)
        std = self._output_noise_std(row_clip, epsilon)
        return clipped + self._rng.normal(0.0, std, size=clipped.shape)

    def _store(self, embeddings: np.ndarray) -> np.ndarray:
        """Validate, cache and return the embedding matrix."""
        embeddings = np.asarray(embeddings, dtype=self.compute_dtype)
        if embeddings.ndim != 2:
            raise TrainingError(
                f"embeddings must be 2-D, got shape {embeddings.shape}"
            )
        if not np.all(np.isfinite(embeddings)):
            # Large DP noise can occasionally blow up activations; clamp so
            # downstream metrics stay defined (this mirrors what the public
            # baseline implementations do before evaluation).
            embeddings = np.nan_to_num(embeddings, nan=0.0, posinf=0.0, neginf=0.0)
        self._embeddings = embeddings
        return embeddings

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(epsilon={self.privacy_config.epsilon}, "
            f"embedding_dim={self.training_config.embedding_dim})"
        )

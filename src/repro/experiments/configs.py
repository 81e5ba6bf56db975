"""Experiment settings shared by the table/figure reproductions.

The paper's full grid (200-2000 epochs, dimension 128, six datasets, ten
repetitions) takes hours even on the original hardware.  The defaults here
are scaled down so the entire suite runs in minutes on a laptop while
keeping every qualitative comparison intact; the ``paper_scale`` factory
restores the paper's settings for users who want the full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Sequence

from ..config import PrivacyConfig, TrainingConfig
from ..exceptions import ConfigurationError

__all__ = ["ExperimentSettings", "PAPER_EPSILONS", "PAPER_METHODS"]

#: The privacy budgets swept in Figures 3 and 4.
PAPER_EPSILONS: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)

#: The eight methods compared in Figures 3 and 4, in the paper's legend order.
PAPER_METHODS: tuple[str, ...] = (
    "dpggan",
    "dpgvae",
    "gap",
    "progap",
    "se_gemb_dw",
    "se_privgemb_dw",
    "se_gemb_deg",
    "se_privgemb_deg",
)


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs of one experiment sweep.

    Attributes
    ----------
    datasets:
        Dataset names (resolved through :func:`repro.graph.load_dataset`).
    dataset_scale:
        Scale factor passed to the dataset loader (1.0 = default laptop size).
    repeats:
        Number of repetitions per configuration (paper: 10).
    training / privacy:
        Base configurations; sweeps override individual fields.
    epsilons:
        Privacy budgets for the figure sweeps.
    seed:
        Master seed.  Every sweep cell derives its own namespaced random
        streams from it via ``numpy.random.SeedSequence`` (see
        :func:`repro.utils.rng.repeat_streams` and
        :func:`repro.experiments.orchestrator.cell_seed_sequence`);
        repetitions are spawned children, never ``seed + i``.
    """

    datasets: tuple[str, ...] = ("chameleon", "power", "arxiv")
    dataset_scale: float = 0.5
    repeats: int = 3
    training: TrainingConfig = field(
        default_factory=lambda: TrainingConfig(
            embedding_dim=32, batch_size=128, learning_rate=0.1, negative_samples=5, epochs=300
        )
    )
    privacy: PrivacyConfig = field(default_factory=PrivacyConfig)
    epsilons: tuple[float, ...] = PAPER_EPSILONS
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ConfigurationError("datasets must not be empty")
        if self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")
        if self.dataset_scale <= 0:
            raise ConfigurationError(f"dataset_scale must be positive, got {self.dataset_scale}")
        if not self.epsilons or any(eps <= 0 for eps in self.epsilons):
            raise ConfigurationError(f"epsilons must be positive, got {self.epsilons}")

    # ------------------------------------------------------------------ #
    def with_updates(self, **kwargs) -> "ExperimentSettings":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def smoke_test(cls) -> "ExperimentSettings":
        """Tiny settings used by the test suite and CI (seconds, not minutes)."""
        return cls(
            datasets=("smallworld",),
            dataset_scale=0.5,
            repeats=1,
            training=TrainingConfig(
                embedding_dim=16, batch_size=32, learning_rate=0.1, negative_samples=3, epochs=8
            ),
            epsilons=(0.5, 3.5),
            seed=3,
        )

    @classmethod
    def paper_scale(cls, datasets: Sequence[str] | None = None) -> "ExperimentSettings":
        """Settings matching the paper's reported hyper-parameters.

        Warning: this is hours of compute with the pure-numpy trainers.
        """
        return cls(
            datasets=tuple(datasets) if datasets else (
                "chameleon", "ppi", "power", "arxiv", "blogcatalog", "dblp"
            ),
            dataset_scale=1.0,
            repeats=10,
            training=TrainingConfig(
                embedding_dim=128,
                batch_size=128,
                learning_rate=0.1,
                negative_samples=5,
                epochs=200,
            ),
            epsilons=PAPER_EPSILONS,
            seed=7,
        )

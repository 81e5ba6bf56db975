"""Skip-gram graph embedding: the paper's core (SE-GEmb / SE-PrivGEmb)."""

from .skipgram import SkipGramModel
from .objectives import StructurePreferenceObjective
from .optimizer import SGDOptimizer
from .perturbation import (
    PerturbationStrategy,
    NaivePerturbation,
    NonZeroPerturbation,
    get_perturbation,
)
from .trainer import SEGEmbTrainer
from .private_trainer import SEPrivGEmbTrainer

__all__ = [
    "SkipGramModel",
    "StructurePreferenceObjective",
    "SGDOptimizer",
    "PerturbationStrategy",
    "NaivePerturbation",
    "NonZeroPerturbation",
    "get_perturbation",
    "SEGEmbTrainer",
    "SEPrivGEmbTrainer",
]

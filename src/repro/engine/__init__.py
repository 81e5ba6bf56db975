"""Unified vectorized training engine for SE-GEmb / SE-PrivGEmb.

This subsystem owns the hot training loop.  It moves batches of Algorithm-1
edge subgraphs as arrays (:class:`SubgraphBatch`), computes all per-example
structure-preference gradients in one vectorized pass
(:class:`BatchGradients`), and runs one shared epoch loop
(:class:`TrainingEngine`) that both the non-private and the private trainer
configure via update rules and hooks instead of re-implementing.

Every step runs through a :class:`StepWorkspace` that preallocates the
per-step arrays once per run, and an opt-in :class:`StepProfiler` records
where a step's wall time goes (sample / gradients / perturb / descend).
"""

from .batch import BatchGradients, SubgraphBatch
from .core import EngineResult, TrainingEngine
from .hooks import EngineHook, IterateAveragingHook, LossLoggingHook
from .profiler import StepProfile, StepProfiler
from .updates import DirectSparseUpdate, PerturbedUpdate, UpdateRule
from .workspace import PerturbedGradients, StepWorkspace, resolve_compute_dtype

__all__ = [
    "BatchGradients",
    "SubgraphBatch",
    "EngineResult",
    "TrainingEngine",
    "EngineHook",
    "LossLoggingHook",
    "IterateAveragingHook",
    "StepProfile",
    "StepProfiler",
    "StepWorkspace",
    "PerturbedGradients",
    "UpdateRule",
    "DirectSparseUpdate",
    "PerturbedUpdate",
    "resolve_compute_dtype",
]

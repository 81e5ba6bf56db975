"""Hook protocol for the training engine.

The seed trainers interleaved their extra behaviours (loss logging, RDP
accounting with early stop, Polyak–Ruppert iterate averaging) directly into
two divergent copies of the epoch loop.  The engine runs ONE loop and gives
every behaviour a hook:

* :meth:`EngineHook.before_step` — runs before the batch is sampled.
* :meth:`EngineHook.after_step` — runs after the parameter update of each
  step (accountant charging, iterate accumulation, logging).
* :meth:`EngineHook.on_train_end` — may replace the published result
  (iterate averaging swaps in the averaged matrices; averaging is
  post-processing of the noised updates, so it is privacy-free).

A run always takes the steps it is given: Algorithm 2's (ε, δ) stop rule
is applied before the run, by capping the step count at
:meth:`~repro.privacy.accountant.RdpAccountant.max_steps`.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from ..utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import EngineResult, TrainingEngine

__all__ = [
    "EngineHook",
    "LossLoggingHook",
    "IterateAveragingHook",
]

_LOGGER = get_logger("engine.hooks")


class EngineHook:
    """Base class: every method is a no-op, subclasses override what they need."""

    def on_train_start(self, engine: "TrainingEngine") -> None:
        """Called once before the first step of a :meth:`TrainingEngine.run`."""

    def before_step(self, engine: "TrainingEngine", epoch: int) -> None:
        """Called before each step samples its batch."""

    def after_step(self, engine: "TrainingEngine", epoch: int, loss: float) -> None:
        """Called after the parameter update of each step."""

    def on_train_end(
        self, engine: "TrainingEngine", result: "EngineResult"
    ) -> "EngineResult":
        """Called once after the loop; may return a modified result.

        ``result`` still holds the model's live ``w_in`` / ``w_out``: a hook
        replaces them, it never writes into them.
        """
        return result


class LossLoggingHook(EngineHook):
    """Debug-log the loss roughly ten times over the course of a run."""

    def __init__(self, logger: logging.Logger | None = None, label: str = "train") -> None:
        self._logger = logger if logger is not None else _LOGGER
        self.label = label

    def after_step(self, engine: "TrainingEngine", epoch: int, loss: float) -> None:
        total = engine.total_epochs
        if (epoch + 1) % max(1, total // 10) == 0:
            self._logger.debug("%s epoch %d/%d loss=%.5f", self.label, epoch + 1, total, loss)


class IterateAveragingHook(EngineHook):
    """Polyak–Ruppert output averaging over all completed steps.

    Post-processing of the noised iterates (Theorem 2): publishing the mean
    of the ``W`` iterates costs no additional privacy and damps the noise
    accumulated by later private steps.  The running sums are float64
    whatever the model dtype, and they stay readable after the run
    (``sum_w_in``, ``sum_w_out``, ``steps``): a hogwild shard adds them to
    the pool's sums, which are divided once by the pooled step count.
    """

    def __init__(self) -> None:
        self.sum_w_in: np.ndarray | None = None
        self.sum_w_out: np.ndarray | None = None
        self.steps = 0

    def on_train_start(self, engine: "TrainingEngine") -> None:
        self.sum_w_in = None
        self.sum_w_out = None
        self.steps = 0

    def after_step(self, engine: "TrainingEngine", epoch: int, loss: float) -> None:
        self.steps += 1
        if self.sum_w_in is None:
            self.sum_w_in = engine.model.w_in.astype(np.float64)
            self.sum_w_out = engine.model.w_out.astype(np.float64)
        else:
            self.sum_w_in += engine.model.w_in
            self.sum_w_out += engine.model.w_out

    def on_train_end(
        self, engine: "TrainingEngine", result: "EngineResult"
    ) -> "EngineResult":
        dtype = engine.model.w_in.dtype
        return replace(
            result,
            embeddings=(self.sum_w_in / self.steps).astype(dtype, copy=False),
            context_embeddings=(self.sum_w_out / self.steps).astype(dtype, copy=False),
        )

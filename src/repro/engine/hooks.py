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
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.markers import zero_alloc
from ..exceptions import TrainingError
from ..utils.logging import get_logger
from .workspace import MovedRows, covers_all_rows, scatter_axpy

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
    accumulated by later private steps.

    A step moves few rows, so the average is kept on those rows only.  Step
    ``u`` changes its moved rows by ``δ_u = W_{u−1} − W_u`` and no other
    row, so over ``T`` steps

        ``Σ_{u=1..T} W_u = T·W_T + Σ_u (u−1)·δ_u``.

    Per matrix the hook keeps ``D = Σ_u (u−1)·δ_u`` in float64.  Each step
    adds ``(u−1)·δ_u`` into the moved rows of ``D`` with one scatter-axpy
    (:func:`~repro.engine.workspace.scatter_axpy`) whose factors are all
    ``u−1``: the same multiply, then add, as scaling ``δ_u`` and adding it,
    without gathering ``D``'s rows.  The workspace's
    :class:`~repro.engine.workspace.MovedRows` supply ``δ_u``: the
    subtracted step, which the descent rounds by at most half an ulp per
    entry, so the mean matches the dense sums to float64 rounding (1.6e-15
    of the largest entry after 100 steps, 6.8e-15 after 1,000, on a
    2,000-node fit).  That holds for float64 parameters only, so a run on
    any other raises :class:`~repro.exceptions.TrainingError` before its
    first step.  The run publishes ``W_T + D/T``.

    ``correction_w_in`` / ``correction_w_out`` hold ``D`` during a run and
    ``D/T`` after it.  A run finishes in place: ``D/T + W_T`` overwrites the
    correction and is published, so no further ``|V| × r`` arrays are made.
    """

    def __init__(self) -> None:
        self.correction_w_in: np.ndarray | None = None
        self.correction_w_out: np.ndarray | None = None
        self.steps = 0
        # the scatter-axpy's weights, as many as the W_out scratch holds
        self._weights: np.ndarray | None = None

    def on_train_start(self, engine: "TrainingEngine") -> None:
        model = engine.model
        if model.w_in.dtype != np.float64 or model.w_out.dtype != np.float64:
            raise TrainingError(
                f"iterate averaging runs on float64 parameters only, got "
                f"{model.w_in.dtype} / {model.w_out.dtype}"
            )
        self.correction_w_in = np.zeros(model.w_in.shape, dtype=np.float64)
        self.correction_w_out = np.zeros(model.w_out.shape, dtype=np.float64)
        self.steps = 0
        self._weights = None

    def after_step(self, engine: "TrainingEngine", epoch: int, loss: float) -> None:
        profiler = engine.profiler
        if profiler is not None:
            start = perf_counter()
        weight = self.steps
        self.steps += 1
        # the first iterate is W_T's own share: it needs no correction
        if weight:
            scratch = engine.workspace.context_scratch
            moved_in, moved_out = engine.workspace.moved
            if self._weights is None:
                self._weights = np.empty(scratch.slots)
            self._weights.fill(weight)
            self._accumulate(self.correction_w_in, moved_in, weight, scratch.indptr)
            self._accumulate(self.correction_w_out, moved_out, weight, scratch.indptr)
        if profiler is not None:
            profiler.record("averaging", perf_counter() - start)

    @zero_alloc
    def _accumulate(
        self, correction: np.ndarray, moved: MovedRows, weight: int, indptr: np.ndarray
    ) -> None:
        """Add ``weight · δ`` into the moved rows of ``correction``.

        Touched rows take one scatter-axpy with the step's weight as every
        factor and the ``W_out`` scratch's ``indptr``; all ``|V|`` rows
        (naive Eq. 6) take the same multiply, then add, densely, scaling the
        step in place: its buffer is free once the descent has run.
        """
        rows, delta = moved.rows, moved.step
        if covers_all_rows(rows, correction.shape[0]):
            np.multiply(delta, weight, out=delta)
            np.add(correction, delta, out=correction)
        else:
            scatter_axpy(correction, rows, delta, self._weights, indptr)

    def on_train_end(
        self, engine: "TrainingEngine", result: "EngineResult"
    ) -> "EngineResult":
        corrections = (self.correction_w_in, self.correction_w_out)
        for correction in corrections:
            np.divide(correction, self.steps, out=correction)
        published = [
            np.add(correction, final, out=correction)
            for correction, final in zip(
                corrections, (engine.model.w_in, engine.model.w_out), strict=True
            )
        ]
        # the published matrices are the buffers: the hook lets go of them
        self.correction_w_in = self.correction_w_out = None
        self._weights = None
        return replace(result, embeddings=published[0], context_embeddings=published[1])

"""Parameter-update rules: how a batch of gradients hits the model.

The two trainers differ in exactly one place of the loop — what happens
between "gradients computed" and "parameters changed":

* SE-GEmb applies the exact gradients as sparse scatter updates
  (:class:`DirectSparseUpdate`);
* SE-PrivGEmb clips per example, aggregates, perturbs (Eq. 6 or Eq. 9) and
  descends on the noised average (:class:`PerturbedUpdate`).

Factoring this into a strategy lets :class:`~repro.engine.core.
TrainingEngine` run one loop for both.

The engine threads two collaborators onto every rule for the length of a
run: ``workspace`` (the run's :class:`~repro.engine.workspace.StepWorkspace`;
rules aggregate and descend through its scratch) and ``profiler`` (a
:class:`~repro.engine.profiler.StepProfiler` or ``None``; rules record
their ``perturb`` / ``descend`` phase times).  The engine also holds each
rule's :meth:`UpdateRule.running` context around the step loop;
:class:`PerturbedUpdate` uses it to prefetch its Gaussian noise on a
background thread that never outlives the run.
"""

from __future__ import annotations

import abc
from contextlib import AbstractContextManager, nullcontext
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.markers import zero_alloc
from ..exceptions import TrainingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..embedding.optimizer import SGDOptimizer
    from ..embedding.perturbation import PerturbationStrategy
    from ..embedding.skipgram import SkipGramModel
    from .batch import BatchGradients, SubgraphBatch
    from .profiler import StepProfiler
    from .workspace import PerturbedGradients, StepWorkspace

__all__ = ["UpdateRule", "DirectSparseUpdate", "PerturbedUpdate"]


class UpdateRule(abc.ABC):
    """Strategy interface: apply one batch of gradients to the model."""

    #: set by the engine for the length of each run
    workspace: "StepWorkspace | None" = None
    #: set by the engine when a StepProfiler hook is active
    profiler: "StepProfiler | None" = None

    @abc.abstractmethod
    def apply(
        self,
        model: "SkipGramModel",
        optimizer: "SGDOptimizer",
        batch: "SubgraphBatch",
        gradients: "BatchGradients",
    ) -> None:
        """Update ``model`` in place from the batch gradients."""

    def running(self) -> AbstractContextManager:
        """Context the engine holds around one run's step loop."""
        return nullcontext()


class DirectSparseUpdate(UpdateRule):
    """Exact (un-clipped, un-noised) scatter update — the SE-GEmb rule.

    Each example contributes a full-strength update to the rows it touches.
    Duplicate rows are first aggregated through the workspace's segment
    scratch (the ``W_out`` rows straight from their rank-1 factors), then
    each touched row is hit once by a scatter-axpy: the same accumulated
    update as ``np.subtract.at`` (up to float summation order) at a
    fraction of its per-element scatter cost, allocation-free.  The moved
    rows go into the workspace's :class:`~repro.engine.workspace.MovedRows`
    records, as for :class:`PerturbedUpdate`.
    """

    def apply(self, model, optimizer, batch, gradients) -> None:
        profiler = self.profiler
        start = perf_counter() if profiler is not None else 0.0
        ws = self.workspace
        unique_in, unique_out = ws.reduce_gradients(gradients)
        updates = (
            (model.w_in, ws.center_scratch, unique_in, ws.moved[0]),
            (model.w_out, ws.context_scratch, unique_out, ws.moved[1]),
        )
        for parameters, scratch, unique, moved in updates:
            _descend_recording(
                optimizer, parameters, scratch.unique_rows[:unique],
                scratch.sums[:unique], scratch, moved,
            )
        if profiler is not None:
            profiler.record("descend", perf_counter() - start)


class PerturbedUpdate(UpdateRule):
    """Clip → aggregate → perturb → average → descend — the SE-PrivGEmb rule.

    The step runs in float64 only, as the noise is calibrated and drawn:
    :meth:`apply` raises :class:`~repro.exceptions.TrainingError` on other
    parameters before either matrix moves.

    Parameters
    ----------
    perturbation:
        A :class:`~repro.embedding.perturbation.PerturbationStrategy`
        (non-zero Eq. 9 or naive Eq. 6).
    gradient_normalization:
        ``"per_row"`` divides each noisy row by the number of examples that
        touched it; ``"batch"`` divides by ``B`` (the literal Eq. 9).  Both
        are post-processing of the noised sum, hence privacy-free.
    """

    def __init__(
        self,
        perturbation: "PerturbationStrategy",
        gradient_normalization: str = "per_row",
    ) -> None:
        if gradient_normalization not in {"per_row", "batch"}:
            raise TrainingError(
                "gradient_normalization must be 'per_row' or 'batch', got "
                f"{gradient_normalization!r}"
            )
        self.perturbation = perturbation
        self.gradient_normalization = gradient_normalization

    def running(self) -> AbstractContextManager:
        """Prefetch the noise for one run; the filler is joined on exit."""
        return self.perturbation.noise.prefetching()

    def apply(self, model, optimizer, batch, gradients) -> None:
        if model.w_in.dtype != np.float64 or model.w_out.dtype != np.float64:
            raise TrainingError(
                f"a private step runs in float64 only, got {model.w_in.dtype} / "
                f"{model.w_out.dtype} parameters"
            )
        profiler = self.profiler
        start = perf_counter() if profiler is not None else 0.0
        perturbed = self.perturbation.perturb_batch(gradients, self.workspace)
        if profiler is not None:
            now = perf_counter()
            profiler.record("perturb", now - start)
            start = now
        self._descend(model, optimizer, perturbed)
        if profiler is not None:
            profiler.record("descend", perf_counter() - start)

    @zero_alloc
    def _descend(
        self, model, optimizer, perturbed: "PerturbedGradients"
    ) -> None:
        """Normalise the noisy sums in place and descend on their rows.

        The sums (and counts) are per-step buffers, rewritten next step, so
        they are scaled in place; each parameter matrix then descends
        through :meth:`SGDOptimizer.descend_unique_rows` (one scatter-axpy
        into the touched rows), and what moved is recorded in the
        workspace's :class:`~repro.engine.workspace.MovedRows`.
        """
        ws = self.workspace
        updates = (
            (model.w_in, perturbed.w_in_rows, perturbed.w_in_sums,
             perturbed.w_in_counts, ws.center_scratch, ws.moved[0]),
            (model.w_out, perturbed.w_out_rows, perturbed.w_out_sums,
             perturbed.w_out_counts, ws.context_scratch, ws.moved[1]),
        )
        for parameters, rows, sums, counts, scratch, moved in updates:
            if self.gradient_normalization == "batch":
                np.divide(sums, perturbed.batch_size, out=sums)
            else:
                # naive Eq. 6 reports untouched rows (count 0): keep them as is
                np.maximum(counts, 1.0, out=counts)
                np.divide(sums, counts[:, None], out=sums)
            _descend_recording(optimizer, parameters, rows, sums, scratch, moved)


def _descend_recording(optimizer, parameters, rows, sums, scratch, moved) -> None:
    """Descend ``parameters`` on ``rows`` by ``sums`` and record it in ``moved``.

    ``sums`` becomes the subtracted step.  The touched rows take one
    scatter-axpy through the matrix's segment scratch; naive Eq. 6 moves
    all ``|V|`` rows and descends densely in place.
    """
    moved.step = optimizer.descend_unique_rows(
        parameters, rows, sums, scratch=sums, pattern=(scratch.indptr, scratch.minus_ones)
    )
    moved.rows = rows

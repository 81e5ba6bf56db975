"""Parameter-update rules: how a batch of gradients hits the model.

The two trainers differ in exactly one place of the loop — what happens
between "gradients computed" and "parameters changed":

* SE-GEmb applies the exact gradients as sparse scatter updates
  (:class:`DirectSparseUpdate`);
* SE-PrivGEmb clips per example, aggregates, perturbs (Eq. 6 or Eq. 9) and
  descends on the noised average (:class:`PerturbedUpdate`), sparsely when
  the strategy reports only touched rows (non-zero Eq. 9) and densely
  otherwise (naive Eq. 6).

Factoring this into a strategy lets :class:`~repro.engine.core.
TrainingEngine` run one loop for both.

The engine threads two optional collaborators onto every rule before a run:
``workspace`` (a :class:`~repro.engine.workspace.StepWorkspace`; rules then
descend through preallocated scratch instead of fresh arrays) and
``profiler`` (a :class:`~repro.engine.profiler.StepProfiler`; rules record
their ``perturb`` / ``descend`` phase times).  Both default to ``None`` and
cost a single attribute read per step when unused.  The engine also holds
each rule's :meth:`UpdateRule.running` context around the step loop;
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
from .workspace import WorkspacePerturbedGradients

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..embedding.optimizer import SGDOptimizer
    from ..embedding.perturbation import PerturbationStrategy
    from ..embedding.skipgram import SkipGramModel
    from .batch import BatchGradients, SubgraphBatch
    from .profiler import StepProfiler
    from .workspace import StepWorkspace

__all__ = ["UpdateRule", "DirectSparseUpdate", "PerturbedUpdate"]


class UpdateRule(abc.ABC):
    """Strategy interface: apply one batch of gradients to the model."""

    #: set by the engine before each run; ``None`` means the default path
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

    Each example contributes a full-strength update to the rows it touches;
    duplicate rows accumulate via ``np.subtract.at``, exactly matching the
    seed trainer's list-of-examples loop.
    """

    def apply(self, model, optimizer, batch, gradients) -> None:
        profiler = self.profiler
        start = perf_counter() if profiler is not None else 0.0
        ws = self.workspace
        if ws is not None and gradients is ws.gradients:
            # Aggregate duplicate rows through the segment scratch, then hit
            # each touched row once with fancy indexing: same accumulated
            # update as np.subtract.at (up to float summation order) at a
            # fraction of its per-element scatter cost, and allocation-free.
            updates = (
                (model.w_in, ws.center_scratch, ws.centers, ws.center_gradients),
                (model.w_out, ws.context_scratch, ws.contexts_flat,
                 ws.context_gradients_flat),
            )
            for parameters, scratch, rows, values in updates:
                unique = scratch.reduce(rows, values)
                sums = scratch.sums[:unique]
                optimizer.descend_unique_rows(
                    parameters, scratch.unique_rows[:unique], sums,
                    scratch=sums, gather=scratch.gather[:unique],
                )
        else:
            dim = model.embedding_dim
            optimizer.descend_rows(
                model.w_in, gradients.centers, gradients.center_gradients
            )
            optimizer.descend_rows(
                model.w_out,
                gradients.context_nodes.reshape(-1),
                gradients.context_gradients.reshape(-1, dim),
            )
        if profiler is not None:
            profiler.record("descend", perf_counter() - start)


class PerturbedUpdate(UpdateRule):
    """Clip → aggregate → perturb → average → descend — the SE-PrivGEmb rule.

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
        profiler = self.profiler
        start = perf_counter() if profiler is not None else 0.0
        perturbed = self.perturbation.perturb_batch(
            gradients,
            num_nodes=model.num_nodes,
            embedding_dim=model.embedding_dim,
            workspace=self.workspace,
        )
        if profiler is not None:
            now = perf_counter()
            profiler.record("perturb", now - start)
            start = now
        if isinstance(perturbed, WorkspacePerturbedGradients):
            self._descend_workspace(model, optimizer, perturbed)
        elif hasattr(perturbed, "averaged_rows"):
            # Sparse result (non-zero Eq. 9): untouched rows are exactly
            # zero, so descending only on the touched rows matches the
            # dense update bit for bit without the |V| x r materialisation.
            # The touched rows are sorted-unique, so the fast unique-row
            # descent applies.
            rows_in, grads_in, rows_out, grads_out = perturbed.averaged_rows(
                self.gradient_normalization
            )
            optimizer.descend_unique_rows(model.w_in, rows_in, grads_in)
            optimizer.descend_unique_rows(model.w_out, rows_out, grads_out)
        else:
            if self.gradient_normalization == "batch":
                w_in_grad, w_out_grad = perturbed.averaged_by_batch()
            else:
                w_in_grad, w_out_grad = perturbed.averaged_by_row_counts()
            optimizer.descend(model.w_in, w_in_grad)
            optimizer.descend(model.w_out, w_out_grad)
        if profiler is not None:
            profiler.record("descend", perf_counter() - start)

    @zero_alloc
    def _descend_workspace(self, model, optimizer, perturbed) -> None:
        """Normalise and descend entirely inside the workspace buffers.

        The sums are scaled in place (they are scratch views, rewritten
        next step), then each parameter matrix is updated through the
        gather → subtract → scatter-assign path of
        :meth:`SGDOptimizer.descend_unique_rows`.
        """
        ws = self.workspace
        batch_size = perturbed.batch_size
        updates = (
            (model.w_in, perturbed.w_in_rows, perturbed.w_in_sums,
             perturbed.w_in_counts, ws.center_scratch),
            (model.w_out, perturbed.w_out_rows, perturbed.w_out_sums,
             perturbed.w_out_counts, ws.context_scratch),
        )
        for parameters, rows, sums, counts, scratch in updates:
            if self.gradient_normalization == "batch":
                np.divide(sums, batch_size, out=sums)
            else:
                # every reported row was touched by >= 1 example, so the
                # max(counts, 1) guard of the dense path is vacuous here
                np.divide(sums, counts[:, None], out=sums)
            optimizer.descend_unique_rows(
                parameters, rows, sums,
                scratch=sums, gather=scratch.gather[: rows.shape[0]],
            )

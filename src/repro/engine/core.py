"""The unified vectorized training loop shared by SE-GEmb and SE-PrivGEmb.

One epoch of either trainer is the same four moves:

1. sample a batch of edge subgraphs (arrays, not dataclasses),
2. compute the structure-preference gradients of the whole batch in one
   vectorized pass (Eq. 7 / Eq. 8),
3. hand the gradients to the :class:`~repro.engine.updates.UpdateRule`
   (exact scatter descent for SE-GEmb; clip → perturb → average → descend
   for SE-PrivGEmb),
4. run the hooks (privacy accounting, iterate averaging, logging).

Every phase runs through one :class:`~repro.engine.workspace.StepWorkspace`
that :meth:`TrainingEngine.run` allocates from the model's and the
sampler's geometry and drops when the run ends.

The engine is deliberately duck-typed: it needs a model with ``w_in`` /
``w_out`` / ``embeddings()``, an optimizer with ``descend_unique_rows`` /
``step_epoch``, an objective with ``batch_gradients`` and a sampler with
``batch_size`` / ``pool`` / ``sample_batch_arrays`` — it imports nothing
from the embedding package, so the embedding layer can depend on the
engine without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import TrainingError
from .hooks import EngineHook
from .updates import UpdateRule
from .workspace import StepWorkspace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .profiler import StepProfile, StepProfiler

__all__ = ["EngineResult", "TrainingEngine"]


@dataclass
class EngineResult:
    """Raw output of one :meth:`TrainingEngine.run` call.

    ``embeddings`` / ``context_embeddings`` default to copies of the final
    iterates.  ``on_train_end`` hooks see the live ``w_in`` / ``w_out`` and
    may replace them (iterate averaging); the run copies whichever of the
    two no hook replaced.
    ``profile`` is filled by a :class:`~repro.engine.profiler.StepProfiler`
    hook when one is installed, ``None`` otherwise.
    """

    embeddings: np.ndarray
    context_embeddings: np.ndarray
    losses: list[float] = field(default_factory=list)
    epochs_run: int = 0
    profile: "StepProfile | None" = None


class TrainingEngine:
    """Run the shared epoch loop over vectorized subgraph batches.

    Parameters
    ----------
    model:
        The skip-gram model holding ``w_in`` and ``w_out``.
    optimizer:
        SGD optimizer applying the updates.
    objective:
        Objective exposing ``batch_gradients(w_in, w_out, batch, workspace=)``.
    sampler:
        Batch source exposing ``batch_size``, its ``pool`` and
        ``sample_batch_arrays(workspace) -> SubgraphBatch``.
    update_rule:
        How gradients hit the parameters (exact vs private).
    hooks:
        Ordered :class:`EngineHook` instances; ``on_train_end`` hooks can
        replace the published matrices (iterate averaging).
    """

    def __init__(
        self,
        *,
        model,
        optimizer,
        objective,
        sampler,
        update_rule: UpdateRule,
        hooks: Sequence[EngineHook] = (),
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.objective = objective
        self.sampler = sampler
        self.update_rule = update_rule
        self.hooks = tuple(hooks)
        #: the step buffers, allocated by ``run`` and dropped when it ends
        self.workspace: StepWorkspace | None = None
        #: installed by a StepProfiler hook for the duration of a run
        self.profiler: "StepProfiler | None" = None
        #: total epochs requested by the current ``run`` (for logging hooks).
        self.total_epochs = 0

    # ------------------------------------------------------------------ #
    def step(self, epoch: int = 0) -> float:
        """Run one training step through the workspace; return its mean batch loss."""
        profiler = self.profiler
        workspace = self.workspace
        if profiler is not None:
            start = perf_counter()
        batch = self.sampler.sample_batch_arrays(workspace)
        if profiler is not None:
            now = perf_counter()
            profiler.record("sample", now - start)
            start = now
        gradients = self.objective.batch_gradients(
            self.model.w_in, self.model.w_out, batch, workspace=workspace
        )
        if profiler is not None:
            profiler.record("gradients", perf_counter() - start)
        self.update_rule.apply(self.model, self.optimizer, batch, gradients)
        return gradients.mean_loss

    def run(self, epochs: int) -> EngineResult:
        """Run exactly ``epochs`` steps and return the result."""
        epochs = int(epochs)
        if epochs <= 0:
            raise TrainingError(f"epochs must be positive, got {epochs}")
        self.total_epochs = epochs

        self.profiler = None
        for hook in self.hooks:
            hook.on_train_start(self)
        # a StepProfiler hook installs itself on engine.profiler above
        self.update_rule.profiler = self.profiler

        losses: list[float] = []
        self.workspace = StepWorkspace.for_training(self.model, self.sampler)
        self.update_rule.workspace = self.workspace
        try:
            with self.update_rule.running():
                for epoch in range(epochs):
                    for hook in self.hooks:
                        hook.before_step(self, epoch)
                    loss = self.step(epoch)
                    losses.append(loss)
                    for hook in self.hooks:
                        hook.after_step(self, epoch, loss)
                    self.optimizer.step_epoch()
        finally:
            # the buffers live for one run: a fitted estimator keeps none
            self.workspace = self.update_rule.workspace = None

        model = self.model
        result = EngineResult(
            embeddings=model.w_in,
            context_embeddings=model.w_out,
            losses=losses,
            epochs_run=len(losses),
        )
        for hook in self.hooks:
            result = hook.on_train_end(self, result)
        # snapshot only the live iterates no hook replaced: an averaged fit
        # never allocates a copy it would throw away
        if result.embeddings is model.w_in:
            result.embeddings = model.embeddings()
        if result.context_embeddings is model.w_out:
            result.context_embeddings = model.w_out.copy()
        self.update_rule.profiler = None
        return result

    def __repr__(self) -> str:
        return (
            f"TrainingEngine(update_rule={type(self.update_rule).__name__}, "
            f"hooks={[type(h).__name__ for h in self.hooks]})"
        )

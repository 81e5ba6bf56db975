"""Dense reference for the Polyak–Ruppert iterate average.

:class:`repro.engine.hooks.IterateAveragingHook` keeps only a step-weighted
sum of the rows each step moved.  The hook here is the plain definition it
rewrites: after every step it adds both full ``W`` matrices, in float64,
into running sums, and the mean is the sums over the step count.  It
publishes nothing, so it can ride along on any engine and be compared
against what the averaging hook published.
"""

from __future__ import annotations

import numpy as np

from repro.engine import EngineHook


class DenseIterateSums(EngineHook):
    """Sum every iterate of both matrices in float64."""

    def __init__(self) -> None:
        self.sum_w_in: np.ndarray | None = None
        self.sum_w_out: np.ndarray | None = None
        self.steps = 0

    def on_train_start(self, engine) -> None:
        model = engine.model
        self.sum_w_in = np.zeros(model.w_in.shape, dtype=np.float64)
        self.sum_w_out = np.zeros(model.w_out.shape, dtype=np.float64)
        self.steps = 0

    def after_step(self, engine, epoch, loss) -> None:
        self.sum_w_in += engine.model.w_in
        self.sum_w_out += engine.model.w_out
        self.steps += 1

    def means(self) -> tuple[np.ndarray, np.ndarray]:
        """The float64 means of the ``W_in`` and ``W_out`` iterates."""
        return self.sum_w_in / self.steps, self.sum_w_out / self.steps

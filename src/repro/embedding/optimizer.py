"""Plain SGD with optional learning-rate decay.

The paper optimises skip-gram with vanilla SGD (Algorithm 2 updates each
weight matrix by the averaged, possibly-noised batch gradient scaled by the
learning rate ``η``).  The training step descends on the touched rows only
(:meth:`SGDOptimizer.descend_unique_rows`, through workspace scratch);
the dense and duplicate-row descents serve callers outside the engine.

Every ``descend*`` method rejects float gradients whose dtype differs from
the parameters': numpy would otherwise upcast silently, and a float32
compute run that quietly descends through float64 temporaries voids the
whole point of the float32 step.  Integer gradients (convenience callers,
tests) are still cast to the parameter dtype — they are exact.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["SGDOptimizer"]


def _check_gradient_dtype(parameters: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """Return ``gradient`` dtype-aligned with ``parameters`` or raise.

    Float/float mismatches raise :class:`ConfigurationError` naming both
    dtypes; non-float gradients (ints from convenience callers) are cast to
    the parameter dtype, which is lossless.
    """
    if gradient.dtype == parameters.dtype:
        return gradient
    if not np.issubdtype(gradient.dtype, np.floating):
        return gradient.astype(parameters.dtype)
    raise ConfigurationError(
        f"gradient dtype {gradient.dtype} does not match parameter dtype "
        f"{parameters.dtype}; cast the gradients (or configure the trainer's "
        "compute_dtype) instead of relying on a silent upcast"
    )


class SGDOptimizer:
    """Stochastic gradient descent on the two skip-gram matrices.

    Parameters
    ----------
    learning_rate:
        Initial step size ``η``.
    decay:
        Multiplicative decay applied per epoch: the effective rate at epoch
        ``t`` is ``η / (1 + decay · t)``.  ``0`` (default) keeps it constant,
        which is what the paper's parameter study uses.
    """

    def __init__(self, learning_rate: float, decay: float = 0.0) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if decay < 0:
            raise ConfigurationError(f"decay must be non-negative, got {decay}")
        self.learning_rate = float(learning_rate)
        self.decay = float(decay)
        self._epoch = 0

    @property
    def current_rate(self) -> float:
        """The learning rate in effect for the current epoch."""
        return self.learning_rate / (1.0 + self.decay * self._epoch)

    def step_epoch(self) -> None:
        """Advance the epoch counter (affects decayed learning rates only)."""
        self._epoch += 1

    def descend(self, parameters: np.ndarray, gradient: np.ndarray) -> None:
        """In-place descent step: ``parameters -= current_rate * gradient``."""
        if parameters.shape != gradient.shape:
            raise ConfigurationError(
                f"parameter/gradient shapes differ: {parameters.shape} vs {gradient.shape}"
            )
        gradient = _check_gradient_dtype(parameters, gradient)
        parameters -= self.current_rate * gradient

    def descend_rows(
        self,
        parameters: np.ndarray,
        rows: np.ndarray,
        gradient_rows: np.ndarray,
        *,
        scratch: np.ndarray | None = None,
    ) -> None:
        """Sparse descent on selected rows only.

        ``rows`` may contain duplicates; contributions accumulate, matching
        a dense update where several examples touch the same row.  With
        ``scratch`` (a preallocated ``gradient_rows``-shaped buffer) the
        rate-scaled rows are computed into it instead of a fresh array.
        """
        rows = np.asarray(rows, dtype=np.int64)
        gradient_rows = np.asarray(gradient_rows)
        if gradient_rows.shape[0] != rows.shape[0]:
            raise ConfigurationError(
                "rows and gradient_rows must have the same leading dimension"
            )
        gradient_rows = _check_gradient_dtype(parameters, gradient_rows)
        if scratch is None:
            np.subtract.at(parameters, rows, self.current_rate * gradient_rows)
        else:
            np.multiply(gradient_rows, self.current_rate, out=scratch)
            np.subtract.at(parameters, rows, scratch)

    def descend_unique_rows(
        self,
        parameters: np.ndarray,
        rows: np.ndarray,
        gradient_rows: np.ndarray,
        *,
        scratch: np.ndarray | None = None,
        gather: np.ndarray | None = None,
    ) -> None:
        """Sparse descent when ``rows`` are known to be unique.

        Identical update to :meth:`descend_rows`, but uses plain fancy
        indexing instead of ``np.subtract.at`` — several times faster, and
        safe only because no row appears twice.

        The allocation-free variant takes both ``scratch`` (may alias
        ``gradient_rows``; receives the rate-scaled rows) and ``gather`` (a
        same-shaped buffer receiving the touched parameter rows): the update
        becomes gather → subtract → scatter-assign with zero fresh arrays.
        """
        rows = np.asarray(rows, dtype=np.int64)
        gradient_rows = np.asarray(gradient_rows)
        if gradient_rows.shape[0] != rows.shape[0]:
            raise ConfigurationError(
                "rows and gradient_rows must have the same leading dimension"
            )
        gradient_rows = _check_gradient_dtype(parameters, gradient_rows)
        if scratch is None or gather is None:
            parameters[rows] -= self.current_rate * gradient_rows
            return
        np.multiply(gradient_rows, self.current_rate, out=scratch)
        np.take(parameters, rows, axis=0, out=gather, mode="clip")
        np.subtract(gather, scratch, out=gather)
        parameters[rows] = gather

    def __repr__(self) -> str:
        return f"SGDOptimizer(learning_rate={self.learning_rate}, decay={self.decay})"

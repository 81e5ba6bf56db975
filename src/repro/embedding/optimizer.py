"""Plain SGD at a constant learning rate.

The paper optimises skip-gram with vanilla SGD (Algorithm 2 updates each
weight matrix by the averaged, possibly-noised batch gradient scaled by the
learning rate ``η``).  The training step descends on the touched rows only
(:meth:`SGDOptimizer.descend_unique_rows`, through workspace scratch).

The descent rejects float gradients whose dtype differs from the
parameters': numpy would otherwise upcast silently, and a float32
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
        Step size ``η``, constant over training as in the paper's
        parameter study.
    """

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def step_epoch(self) -> None:
        """Mark the end of one training step (the engine calls it after each)."""

    def descend_unique_rows(
        self,
        parameters: np.ndarray,
        rows: np.ndarray,
        gradient_rows: np.ndarray,
        *,
        scratch: np.ndarray | None = None,
        gather: np.ndarray | None = None,
        before: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sparse descent when ``rows`` are known to be unique.

        ``parameters[rows] -= learning_rate * gradient_rows`` as gather →
        subtract → scatter-assign, which is safe only because no row
        appears twice.  Returns ``(step, after)``: the rate-scaled rows
        that were subtracted and the rows' new values.

        ``scratch`` (may alias ``gradient_rows``) receives the step and
        ``gather`` the touched parameter rows, then their new values; both
        must have the shape of ``gradient_rows``.  Passing them makes the
        update allocation-free, omitting them allocates two fresh arrays.
        A ``before`` array of that shape, of any float dtype, receives the
        rows' old values.
        """
        rows = np.asarray(rows, dtype=np.int64)
        gradient_rows = np.asarray(gradient_rows)
        if gradient_rows.shape[0] != rows.shape[0]:
            raise ConfigurationError(
                "rows and gradient_rows must have the same leading dimension"
            )
        gradient_rows = _check_gradient_dtype(parameters, gradient_rows)
        if scratch is None:
            scratch = np.empty(gradient_rows.shape, dtype=parameters.dtype)
        if gather is None:
            gather = np.empty_like(scratch)
        np.multiply(gradient_rows, self.learning_rate, out=scratch)
        np.take(parameters, rows, axis=0, out=gather, mode="clip")
        if before is not None:
            np.copyto(before, gather)
        np.subtract(gather, scratch, out=gather)
        parameters[rows] = gather
        return scratch, gather

    def __repr__(self) -> str:
        return f"SGDOptimizer(learning_rate={self.learning_rate})"

"""Per-example reference for the structure-preference objective.

The engine computes Eq. (5), (7) and (8) for a whole batch in one
vectorized pass (:meth:`StructurePreferenceObjective.batch_gradients`).
:func:`example_gradients` computes them for one Algorithm-1 example
``(center, contexts_row, weight)`` — ``contexts_row`` holds the positive
node first, then the ``k`` negatives — the way the equations read: the
oracle the batch pass is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import BatchGradients, SubgraphBatch
from repro.utils.math import log_sigmoid, sigmoid


@dataclass
class ExampleGradients:
    """Sparse gradients of one example: one ``W_in`` row, ``1+k`` ``W_out`` rows.

    The ``W_out`` rows are kept as Eq. (8) factors, the weighted errors and
    the centre row; :attr:`context_gradients` builds their outer product.
    """

    center: int
    center_gradient: np.ndarray
    context_nodes: np.ndarray
    context_errors: np.ndarray
    center_vector: np.ndarray
    loss: float

    @property
    def context_gradients(self) -> np.ndarray:
        """The ``[1+k, r]`` ``W_out`` gradient block ``errors ⊗ v_i``."""
        return np.outer(self.context_errors, self.center_vector)


def _loss(scores, weight) -> float:
    """Eq. (5) from the ``1+k`` scores, positive first."""
    return -weight * float(log_sigmoid(scores[0])) - weight * float(
        np.sum(log_sigmoid(-scores[1:]))
    )


def example_loss(w_in, w_out, center, contexts_row, weight) -> float:
    """Eq. (5) loss of one example."""
    return _loss(w_out[np.asarray(contexts_row)] @ w_in[int(center)], weight)


def example_gradients(w_in, w_out, center, contexts_row, weight) -> ExampleGradients:
    """Eq. (7) / Eq. (8) gradients of one example (of the loss, to descend on)."""
    center = int(center)
    context_nodes = np.asarray(contexts_row, dtype=np.int64).copy()
    center_vec = w_in[center]
    context_vecs = w_out[context_nodes]
    scores = context_vecs @ center_vec
    errors = sigmoid(scores)
    errors[0] -= 1.0  # the first context node is the positive v_j
    errors *= weight
    return ExampleGradients(
        center=center,
        center_gradient=errors @ context_vecs,
        context_nodes=context_nodes,
        context_errors=errors,
        center_vector=center_vec.copy(),
        loss=_loss(scores, weight),
    )


def batch_examples(w_in, w_out, batch: SubgraphBatch) -> list[ExampleGradients]:
    """:func:`example_gradients` of every row of a weighted batch."""
    return [
        example_gradients(w_in, w_out, batch.centers[row], batch.contexts[row], batch.weights[row])
        for row in range(len(batch))
    ]


def split(gradients: BatchGradients) -> list[ExampleGradients]:
    """Unpack a batch pass's gradients into per-example copies."""
    return [
        ExampleGradients(
            center=int(gradients.centers[row]),
            center_gradient=gradients.center_gradients[row].copy(),
            context_nodes=gradients.context_nodes[row].copy(),
            context_errors=gradients.context_errors[row].copy(),
            center_vector=gradients.center_vectors[row].copy(),
            loss=float(gradients.losses[row]),
        )
        for row in range(len(gradients))
    ]

"""Per-example reference for the vectorized private step.

The engine clips, aggregates and noises a whole batch inside the
:class:`~repro.engine.StepWorkspace` buffers.  :func:`perturb` does the
same one example at a time, the way Algorithm 2 reads, into dense
``|V| × r`` sums: the oracle the workspace step is checked against.  It
draws its noise from the strategy's own ring in the same order as the
step (``W_in`` rows, then ``W_out`` rows; sorted touched rows for
non-zero Eq. 9, every row for naive Eq. 6), so seeded results agree
draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from objective_oracle import ExampleGradients

from repro.embedding.perturbation import PerturbationStrategy
from repro.engine import BatchGradients, PerturbedGradients, StepWorkspace
from repro.exceptions import TrainingError
from repro.privacy.mechanisms import clip_gradient


@dataclass
class DensePerturbed:
    """Noisy summed gradients as dense ``|V| × r`` matrices plus row counts."""

    w_in_gradient: np.ndarray
    w_out_gradient: np.ndarray
    w_in_counts: np.ndarray
    w_out_counts: np.ndarray
    batch_size: int
    mean_loss: float

    def averaged_by_row_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Divide each row by the examples touching it (untouched rows as is)."""
        in_div = np.maximum(self.w_in_counts, 1.0)[:, None]
        out_div = np.maximum(self.w_out_counts, 1.0)[:, None]
        return self.w_in_gradient / in_div, self.w_out_gradient / out_div


def perturb(
    strategy: PerturbationStrategy,
    example_gradients: list[ExampleGradients],
    num_nodes: int,
    embedding_dim: int,
) -> DensePerturbed:
    """Clip each example, aggregate over the batch and add the strategy's noise."""
    if not example_gradients:
        raise TrainingError("example_gradients must not be empty")
    batch_size = len(example_gradients)
    threshold = strategy.clipping_threshold
    w_in_sum = np.zeros((num_nodes, embedding_dim))
    w_out_sum = np.zeros((num_nodes, embedding_dim))
    w_in_counts = np.zeros(num_nodes)
    w_out_counts = np.zeros(num_nodes)
    for example in example_gradients:
        w_in_sum[example.center] += clip_gradient(example.center_gradient, threshold)
        w_in_counts[example.center] += 1
        clipped = clip_gradient(example.context_gradients, threshold)
        np.add.at(w_out_sum, example.context_nodes, clipped)
        np.add.at(w_out_counts, example.context_nodes, 1)

    std = strategy.noise_multiplier * strategy.sensitivity(batch_size)
    for sums, counts in ((w_in_sum, w_in_counts), (w_out_sum, w_out_counts)):
        if strategy.name == "naive":
            sums += strategy.noise.draw(sums.shape, std)
        else:
            rows = np.flatnonzero(counts)
            sums[rows] += strategy.noise.draw((rows.size, embedding_dim), std)
    return DensePerturbed(
        w_in_gradient=w_in_sum,
        w_out_gradient=w_out_sum,
        w_in_counts=w_in_counts,
        w_out_counts=w_out_counts,
        batch_size=batch_size,
        mean_loss=float(np.mean([example.loss for example in example_gradients])),
    )


def densify(perturbed: PerturbedGradients, num_nodes: int) -> DensePerturbed:
    """Scatter a step's compact result into the oracle's dense layout."""
    matrices = []
    for rows, sums, counts in (
        (perturbed.w_in_rows, perturbed.w_in_sums, perturbed.w_in_counts),
        (perturbed.w_out_rows, perturbed.w_out_sums, perturbed.w_out_counts),
    ):
        dense = np.zeros((num_nodes, sums.shape[1]), dtype=sums.dtype)
        dense[rows] = sums
        dense_counts = np.zeros(num_nodes)
        dense_counts[rows] = counts
        matrices.append((dense, dense_counts))
    (w_in, in_counts), (w_out, out_counts) = matrices
    return DensePerturbed(
        w_in_gradient=w_in,
        w_out_gradient=w_out,
        w_in_counts=in_counts,
        w_out_counts=out_counts,
        batch_size=perturbed.batch_size,
        mean_loss=perturbed.mean_loss,
    )


def load_gradients(
    workspace: StepWorkspace, example_gradients: list[ExampleGradients]
) -> BatchGradients:
    """Copy per-example gradients into the workspace's gradient buffers."""
    for row, example in enumerate(example_gradients):
        workspace.centers[row] = example.center
        workspace.center_gradients[row] = example.center_gradient
        workspace.contexts[row] = example.context_nodes
        workspace.errors[row] = example.context_errors
        workspace.center_vecs[row] = example.center_vector
        workspace.losses[row] = example.loss
    return workspace.gradients


def workspace_for(
    example_gradients: list[ExampleGradients], num_nodes: int, dtype=np.float64
) -> StepWorkspace:
    """A workspace shaped for ``example_gradients`` over ``num_nodes`` rows."""
    first = example_gradients[0]
    return StepWorkspace(
        batch_size=len(example_gradients),
        num_negatives=first.context_nodes.shape[0] - 1,
        embedding_dim=first.center_gradient.shape[0],
        num_nodes=num_nodes,
        dtype=dtype,
    )

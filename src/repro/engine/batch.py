"""Array-level batch containers for the vectorized training engine.

Algorithm-1 examples move through the engine as struct-of-arrays, one
whole batch at a time:

* :class:`SubgraphBatch` — ``B`` edge subgraphs as three aligned arrays:
  centres ``[B]``, contexts ``[B, 1+k]`` (positive node first, then the
  ``k`` negatives) and optional proximity weights ``[B]``.
* :class:`BatchGradients` — the sparse gradients of a whole batch: one
  ``W_in`` row per example, and the ``1+k`` ``W_out`` rows per example in
  their rank-1 factors (weighted errors and the centre row), plus the
  per-example losses so the loss never has to be recomputed from scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import TrainingError

__all__ = ["SubgraphBatch", "BatchGradients"]


@dataclass(frozen=True)
class SubgraphBatch:
    """A batch of ``B`` edge subgraphs in struct-of-arrays layout.

    Attributes
    ----------
    centers:
        Centre node ``v_i`` of each example, shape ``[B]``.
    contexts:
        Context node indices of each example, shape ``[B, 1+k]``; column 0
        is the positive node ``v_j``, columns ``1..k`` the negatives.
    weights:
        Optional proximity weights ``p_ij`` per example, shape ``[B]``.
        ``None`` means "not yet bound to an objective"; the objective fills
        them in (or computes them on the fly).
    """

    centers: np.ndarray
    contexts: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=np.int64)
        contexts = np.asarray(self.contexts, dtype=np.int64)
        if centers.ndim != 1:
            raise TrainingError(f"centers must be 1-D, got shape {centers.shape}")
        if centers.shape[0] == 0:
            raise TrainingError("SubgraphBatch must contain at least one example")
        if contexts.ndim != 2 or contexts.shape[0] != centers.shape[0]:
            raise TrainingError(
                f"contexts must have shape ({centers.shape[0]}, 1 + k), "
                f"got {contexts.shape}"
            )
        if contexts.shape[1] < 2:
            raise TrainingError(
                "contexts needs at least two columns (positive + >=1 negative), "
                f"got shape {contexts.shape}"
            )
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "contexts", contexts)
        if self.weights is not None:
            # float32 buffers pass through untouched (the compute-dtype fast
            # path relies on buffer identity); everything else keeps the old
            # coerce-to-float64 behaviour.
            weights = np.asarray(self.weights)
            if weights.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
                weights = weights.astype(float)
            if weights.shape != centers.shape:
                raise TrainingError(
                    f"weights must have shape {centers.shape}, got {weights.shape}"
                )
            # Weights come from proximity pair lookups (CSR or dense); a
            # non-finite value would silently poison every gradient that
            # touches the row, so reject it at construction.
            if np.any(~np.isfinite(weights)):
                raise TrainingError("proximity weights must be finite")
            object.__setattr__(self, "weights", weights)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.centers.shape[0])

    @property
    def positives(self) -> np.ndarray:
        """The positive context node of each example, shape ``[B]``."""
        return self.contexts[:, 0]

    @property
    def negatives(self) -> np.ndarray:
        """The ``k`` negative nodes of each example, shape ``[B, k]``."""
        return self.contexts[:, 1:]

    @property
    def num_negatives(self) -> int:
        """``k``, the number of negative samples per example."""
        return int(self.contexts.shape[1]) - 1

    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray, *, out: "SubgraphBatch | None" = None) -> "SubgraphBatch":
        """Return the sub-batch at ``indices`` (used by the batch sampler).

        With ``out`` (a batch wrapping preallocated buffers, e.g.
        ``StepWorkspace.batch``) the rows are gathered straight into the
        buffers via ``np.take(..., out=..., mode="clip")`` and ``out`` is
        returned — the engine's allocation-free step.  ``indices`` must already
        be in range (``mode="clip"`` silently clamps, it does not validate)
        and the weight dtypes must match exactly, otherwise numpy would
        allocate a casting buffer behind the scenes.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if out is None:
            return SubgraphBatch(
                centers=self.centers[indices],
                contexts=self.contexts[indices],
                weights=None if self.weights is None else self.weights[indices],
            )
        if self.weights is None and out.weights is not None:
            raise TrainingError(
                "cannot take() from a weightless pool into a workspace batch "
                "with weight buffers: the stale weights would be used"
            )
        np.take(self.centers, indices, out=out.centers, mode="clip")
        np.take(self.contexts, indices, axis=0, out=out.contexts, mode="clip")
        if self.weights is not None:
            if out.weights is None or out.weights.dtype != self.weights.dtype:
                raise TrainingError(
                    "workspace weight buffer dtype "
                    f"{None if out.weights is None else out.weights.dtype} does "
                    f"not match pool weights {self.weights.dtype}; cast the pool "
                    "once (SubgraphSampler does this) instead of per step"
                )
            np.take(self.weights, indices, out=out.weights, mode="clip")
        return out

    def with_weights(self, weights: np.ndarray) -> "SubgraphBatch":
        """Return a copy of this batch with proximity weights attached."""
        return SubgraphBatch(centers=self.centers, contexts=self.contexts, weights=weights)


@dataclass(frozen=True)
class BatchGradients:
    """Sparse structure-preference gradients of a whole batch (Eq. 7 / Eq. 8).

    The ``W_out`` gradient of example ``b`` is the outer product
    ``context_errors[b] ⊗ center_vectors[b]`` (Eq. 8: the weighted errors
    ``p_ij (σ(v_n·v_i) - 1[n = j])`` times the one centre row ``v_i``), and
    it is kept in those factors: the ``[B, 1+k, r]`` block is never built.
    Row ``context_nodes[b, n]`` receives ``context_errors[b, n] ·
    center_vectors[b]``.

    The per-example ``losses`` ride along for free — they are
    computed from the same sigmoid scores as the gradients, so trainers never
    need a second loss pass over the batch.
    """

    centers: np.ndarray  # [B] int64
    center_gradients: np.ndarray  # [B, r]
    context_nodes: np.ndarray  # [B, 1+k] int64
    context_errors: np.ndarray  # [B, 1+k]
    center_vectors: np.ndarray  # [B, r], the W_in rows the scores used
    losses: np.ndarray  # [B]

    def __len__(self) -> int:
        return int(self.centers.shape[0])

    @property
    def batch_size(self) -> int:
        """Number of examples ``B`` in the batch."""
        return len(self)

    @property
    def mean_loss(self) -> float:
        """Mean per-example loss of the batch — no extra forward pass needed."""
        return float(np.mean(self.losses))

"""Array-level batch containers for the vectorized training engine.

The per-example :class:`~repro.graph.sampling.EdgeSubgraph` dataclass is a
faithful rendition of one Algorithm-1 record, but iterating a Python list of
them is what kept the seed trainers slow: every SGD step paid ``B`` Python
function calls, ``B`` small matmuls and ``B`` dataclass allocations.  The
engine instead moves whole batches as struct-of-arrays:

* :class:`SubgraphBatch` — ``B`` edge subgraphs as three aligned arrays:
  centres ``[B]``, contexts ``[B, 1+k]`` (positive node first, matching
  ``EdgeSubgraph.all_context_nodes``) and optional proximity weights ``[B]``.
* :class:`BatchGradients` — the sparse gradients of a whole batch: one
  ``W_in`` row per example and ``1+k`` ``W_out`` rows per example, plus the
  per-example losses so the loss never has to be recomputed from scores.

Both containers keep ``EdgeSubgraph`` round-trips (:meth:`SubgraphBatch.
from_subgraphs` / :meth:`SubgraphBatch.to_subgraphs`) so list-based callers
keep working; the arrays are the hot path, the dataclasses the view.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import TrainingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..embedding.objectives import PairGradients
    from ..graph.sampling import EdgeSubgraph

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

    # ------------------------------------------------------------------ #
    @classmethod
    def from_subgraphs(
        cls,
        subgraphs: Sequence["EdgeSubgraph"],
        weights: np.ndarray | None = None,
    ) -> "SubgraphBatch":
        """Pack a list of :class:`EdgeSubgraph` records into arrays."""
        if len(subgraphs) == 0:
            raise TrainingError("cannot build a SubgraphBatch from zero subgraphs")
        num_negatives = {int(np.asarray(sub.negatives).shape[0]) for sub in subgraphs}
        if len(num_negatives) != 1:
            raise TrainingError(
                f"all subgraphs must share one negative count, got {sorted(num_negatives)}"
            )
        k = num_negatives.pop()
        if k < 1:
            raise TrainingError(f"subgraphs must have >= 1 negative, got {k}")
        centers = np.fromiter((int(sub.center) for sub in subgraphs), dtype=np.int64)
        contexts = np.empty((len(subgraphs), 1 + k), dtype=np.int64)
        for row, sub in enumerate(subgraphs):
            contexts[row, 0] = int(sub.positive)
            contexts[row, 1:] = sub.negatives
        return cls(centers=centers, contexts=contexts, weights=weights)

    def to_subgraphs(self) -> list["EdgeSubgraph"]:
        """Materialise the compatibility view: one :class:`EdgeSubgraph` per row."""
        from ..graph.sampling import EdgeSubgraph

        return [
            EdgeSubgraph(
                center=int(self.centers[row]),
                positive=int(self.contexts[row, 0]),
                negatives=self.contexts[row, 1:].copy(),
            )
            for row in range(len(self))
        ]


@dataclass(frozen=True)
class BatchGradients:
    """Sparse structure-preference gradients of a whole batch (Eq. 7 / Eq. 8).

    Mirrors ``B`` :class:`~repro.embedding.objectives.PairGradients` records
    in array form.  The per-example ``losses`` ride along for free — they are
    computed from the same sigmoid scores as the gradients, so trainers never
    need a second loss pass over the batch.
    """

    centers: np.ndarray  # [B] int64
    center_gradients: np.ndarray  # [B, r]
    context_nodes: np.ndarray  # [B, 1+k] int64
    context_gradients: np.ndarray  # [B, 1+k, r]
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

    def to_pair_gradients(self) -> list["PairGradients"]:
        """Compatibility view: unpack into per-example ``PairGradients``."""
        from ..embedding.objectives import PairGradients

        return [
            PairGradients(
                center=int(self.centers[row]),
                center_gradient=self.center_gradients[row].copy(),
                context_nodes=self.context_nodes[row].copy(),
                context_gradients=self.context_gradients[row].copy(),
                loss=float(self.losses[row]),
            )
            for row in range(len(self))
        ]

"""Preallocated per-step workspaces: every training step runs allocation-free.

An engine step needs roughly ten arrays — the batch gather, the
``[B, 1+k, r]`` context-vector block, the score and error blocks, the
outer-product gradient block, clipping quotients, Gaussian noise — and on
large graphs allocating them per step would dominate the step time.
:class:`StepWorkspace` allocates each of them once per
:meth:`~repro.engine.core.TrainingEngine.run`, and the step threads it
through every phase:

* ``SubgraphSampler.sample_batch_arrays(workspace)`` fills the batch
  buffers in place via ``np.take(..., out=..., mode="clip")``,
* ``StructurePreferenceObjective.batch_gradients(..., workspace=...)``
  computes scores, losses, errors and both gradient blocks with ``out=``
  ufuncs and einsums into the preallocated blocks,
* the perturbation strategies clip in place and (non-zero Eq. 9) run
  their aggregate → noise pipeline inside the two :class:`_SegmentScratch`
  blocks, drawing Gaussians into a reused float64 buffer, and
* the update rules descend through the same scratch.

Steady-state steps therefore perform no array-sized heap allocations in the
gradient / perturb / descend phases (a tracemalloc test pins this); the only
remaining per-step allocations are O(bytes) Python object overhead (view
structs, the loss float).  The engine drops the workspace when the run
ends, so a fitted estimator holds no step buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import DTypeLike

from ..analysis.markers import zero_alloc
from ..exceptions import ConfigurationError
from .batch import BatchGradients, SubgraphBatch

__all__ = [
    "PerturbedGradients",
    "StepWorkspace",
    "resolve_compute_dtype",
]

#: the supported compute dtypes; accountant / sensitivity / noise
#: calibration always stay float64 regardless of this knob.
_COMPUTE_DTYPES = {"float32": np.float32, "float64": np.float64}


def resolve_compute_dtype(value: DTypeLike | None) -> np.dtype:
    """Normalise a ``compute_dtype`` knob value to a numpy dtype.

    Accepts the strings ``"float32"`` / ``"float64"``, the numpy scalar
    types, or ``np.dtype`` instances; anything else raises
    :class:`~repro.exceptions.ConfigurationError` listing the valid values.
    ``None`` is rejected too — ``np.dtype(None)`` would silently mean
    float64, hiding an unset value.
    """
    dtype = None
    if value is not None:
        try:
            dtype = np.dtype(value)
        except TypeError:
            dtype = None
    if dtype is None or dtype.name not in _COMPUTE_DTYPES:
        raise ConfigurationError(
            f"compute_dtype must be one of {sorted(_COMPUTE_DTYPES)}, got {value!r}"
        )
    return dtype


class _SegmentScratch:
    """Buffers to segment-reduce a fixed number of scatter slots in place.

    The scatter updates need, per step, the *unique* touched parameter rows
    together with their summed gradients and touch counts.  ``np.unique`` +
    ``np.bincount`` produce fresh arrays every call (and ``np.add.reduceat``
    / axis-0 ``cumsum`` turn out to be several ms for these shapes); this
    scratch gets the same result through in-place primitives only, and
    exploits that a training batch touches *mostly distinct* rows — the
    typical segment has length 1:

    1. pack ``row * slots + slot`` into one int64 key array and sort it in
       place (rows ascending, original slot as tiebreak),
    2. mark segment boundaries with an in-place ``np.not_equal`` and
       compress them into the bounds buffer (``np.compress(..., out=...)``),
    3. initialise each segment sum with its *first* slot's value block
       (one ``np.take(..., out=...)`` gather), then scatter-add only the
       duplicate slots — usually a small fraction — via ``np.add.at``.

    All outputs are views into buffers owned by this object; they are valid
    until the next :meth:`reduce` call.
    """

    def __init__(self, slots: int, dim: int, dtype: np.dtype) -> None:
        self.slots = int(slots)
        self.keys = np.empty(slots, dtype=np.int64)
        self.sorted_rows = np.empty(slots, dtype=np.int64)
        self.slot_of = np.empty(slots, dtype=np.int64)
        self.flags = np.empty(slots, dtype=bool)
        self.dup_flags = np.empty(slots, dtype=bool)
        self.bounds = np.empty(slots, dtype=np.int64)
        self.segment_ids = np.empty(slots, dtype=np.int64)
        self.index_scratch = np.empty(slots, dtype=np.int64)
        self.dup_positions = np.empty(slots, dtype=np.int64)
        self.dup_segments = np.empty(slots, dtype=np.int64)
        self.count_ints = np.empty(slots, dtype=np.int64)
        self.sums = np.empty((slots, dim), dtype=dtype)
        self.counts = np.empty(slots, dtype=dtype)
        self.unique_rows = np.empty(slots, dtype=np.int64)
        # One block serves the three value scratches, whose lifetimes never
        # overlap within a step: duplicate slots during ``reduce``, then the
        # noise staged into ``sums``, then the gathered parameter rows of
        # the descent.
        block = np.empty((slots, dim), dtype=dtype)
        self.dup_values = block
        #: compute-dtype staging for the noise: a cross-dtype ufunc would
        #: allocate casting buffers, np.copyto into this one does not
        self.noise_cast = block
        self.gather = block
        #: float64 regardless of the compute dtype — DP noise is calibrated
        #: and drawn in full precision, then added into the compute buffers.
        self.noise = (
            block if dtype == np.dtype(np.float64)
            else np.empty((slots, dim), dtype=np.float64)
        )
        self.arange = np.arange(slots, dtype=np.int64)

    @zero_alloc
    def reduce(self, rows: np.ndarray, values: np.ndarray) -> int:
        """Segment-sum ``values`` by ``rows``; return the unique-row count ``U``.

        After the call ``unique_rows[:U]`` holds the sorted unique rows,
        ``sums[:U]`` their summed value blocks and ``counts[:U]`` how many
        slots hit each row.  ``rows`` must hold exactly ``self.slots``
        non-negative entries.  Within a segment, slots accumulate in their
        original order — the same order as ``np.add.at`` over sorted rows.
        """
        slots = self.slots
        keys = self.keys
        np.multiply(rows, slots, out=keys)
        np.add(keys, self.arange, out=keys)
        keys.sort()
        np.floor_divide(keys, slots, out=self.sorted_rows)
        np.remainder(keys, slots, out=self.slot_of)
        flags = self.flags
        flags[0] = True
        np.not_equal(self.sorted_rows[1:], self.sorted_rows[:-1], out=flags[1:])
        unique = int(np.count_nonzero(flags))
        bounds = self.bounds
        np.compress(flags, self.arange, out=bounds[:unique])
        np.take(self.sorted_rows, bounds[:unique], out=self.unique_rows[:unique], mode="clip")

        # seed every segment with its first slot's value block ...
        first_slots = self.index_scratch
        np.take(self.slot_of, bounds[:unique], out=first_slots[:unique], mode="clip")
        np.take(values, first_slots[:unique], axis=0, out=self.sums[:unique], mode="clip")
        # ... then fold in only the duplicate slots (few, for real batches)
        duplicates = slots - unique
        if duplicates:
            np.cumsum(flags, out=self.segment_ids)
            np.subtract(self.segment_ids, 1, out=self.segment_ids)
            np.logical_not(flags, out=self.dup_flags)
            np.compress(self.dup_flags, self.arange, out=self.dup_positions[:duplicates])
            np.take(
                self.segment_ids, self.dup_positions[:duplicates],
                out=self.dup_segments[:duplicates], mode="clip",
            )
            np.take(
                self.slot_of, self.dup_positions[:duplicates],
                out=self.index_scratch[:duplicates], mode="clip",
            )
            np.take(
                values, self.index_scratch[:duplicates], axis=0,
                out=self.dup_values[:duplicates], mode="clip",
            )
            np.add.at(
                self.sums[:unique], self.dup_segments[:duplicates],
                self.dup_values[:duplicates],
            )

        ints = self.count_ints
        if unique > 1:
            np.subtract(bounds[1:unique], bounds[: unique - 1], out=ints[: unique - 1])
        ints[unique - 1] = slots - bounds[unique - 1]
        np.copyto(self.counts[:unique], ints[:unique], casting="unsafe")
        return unique


@dataclass
class PerturbedGradients:
    """The noised summed gradients of one private step, row by row.

    For each matrix: the rows that carry a gradient (sorted unique), their
    noisy clipped sums and how many examples touched each row.  Non-zero
    Eq. 9 reports the touched rows only, as views into the workspace's
    segment scratch (valid until the next step overwrites them); naive
    Eq. 6 reports every row of the matrix, untouched ones with count 0.
    """

    w_in_rows: np.ndarray | None = None
    w_in_sums: np.ndarray | None = None
    w_in_counts: np.ndarray | None = None
    w_out_rows: np.ndarray | None = None
    w_out_sums: np.ndarray | None = None
    w_out_counts: np.ndarray | None = None
    batch_size: int = 0
    mean_loss: float = 0.0


class StepWorkspace:
    """Every per-step array of a training run, allocated once.

    Parameters
    ----------
    batch_size:
        Examples per step ``B`` (the *effective* batch size — capped at the
        pool size by :class:`~repro.graph.sampling.SubgraphSampler`).
    num_negatives:
        Negative samples per example ``k``.
    embedding_dim:
        Embedding dimension ``r``.
    num_nodes:
        ``|V|`` of the training graph (bounds the scatter row indices).
    dtype:
        Compute dtype of every floating buffer (``"float32"`` or
        ``"float64"``).  Index buffers are always int64 and the DP noise
        buffers always float64.
    """

    def __init__(
        self,
        *,
        batch_size: int,
        num_negatives: int,
        embedding_dim: int,
        num_nodes: int,
        dtype: DTypeLike = np.float64,
    ) -> None:
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        if num_negatives < 1:
            raise ConfigurationError(f"num_negatives must be >= 1, got {num_negatives}")
        if embedding_dim < 1:
            raise ConfigurationError(f"embedding_dim must be >= 1, got {embedding_dim}")
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.batch_size = int(batch_size)
        self.num_negatives = int(num_negatives)
        self.embedding_dim = int(embedding_dim)
        self.num_nodes = int(num_nodes)
        self.dtype = resolve_compute_dtype(dtype)

        B = self.batch_size
        K = self.num_negatives + 1
        r = self.embedding_dim
        slots = B * K
        if self.num_nodes > (2**62) // max(slots, 1):
            raise ConfigurationError(
                "num_nodes * batch slots overflows the int64 segment keys"
            )

        # ---- the batch, as reusable buffers wrapped in one SubgraphBatch ----
        self.centers = np.zeros(B, dtype=np.int64)
        self.contexts = np.zeros((B, K), dtype=np.int64)
        self.weights = np.zeros(B, dtype=self.dtype)
        self.contexts_flat = self.contexts.reshape(-1)
        self.batch = SubgraphBatch(
            centers=self.centers, contexts=self.contexts, weights=self.weights
        )
        if self.batch.centers is not self.centers or self.batch.weights is not self.weights:
            raise ConfigurationError(
                "SubgraphBatch copied the workspace buffers; the in-place fast "
                "path requires buffer identity"
            )

        # ---- forward / gradient blocks ----
        self.center_vecs = np.empty((B, r), dtype=self.dtype)
        self.context_vecs = np.empty((B, K, r), dtype=self.dtype)
        self.context_vecs_flat = self.context_vecs.reshape(slots, r)
        self.scores = np.empty((B, K), dtype=self.dtype)
        self.errors = np.empty((B, K), dtype=self.dtype)
        self.losses = np.zeros(B, dtype=self.dtype)
        self.loss_scratch_a = np.empty((B, K), dtype=self.dtype)
        self.loss_scratch_b = np.empty((B, K), dtype=self.dtype)
        self.center_gradients = np.empty((B, r), dtype=self.dtype)
        self.context_gradients = np.empty((B, K, r), dtype=self.dtype)
        # broadcastable views built once so the hot loop never re-slices
        self.weights_col = self.weights[:, None]
        self.errors_col = self.errors[:, :, None]
        self.center_vecs_mid = self.center_vecs[:, None, :]
        self.gradients = BatchGradients(
            centers=self.centers,
            center_gradients=self.center_gradients,
            context_nodes=self.contexts,
            context_gradients=self.context_gradients,
            losses=self.losses,
        )

        # ---- clipping scratch ----
        self.example_norms = np.empty(B, dtype=self.dtype)
        self.example_norms_col = self.example_norms[:, None]
        self.example_norms_col3 = self.example_norms[:, None, None]

        # ---- compact scatter scratch (direct descents and non-zero Eq. 9) ----
        self.center_scratch = _SegmentScratch(B, r, self.dtype)
        self.context_scratch = _SegmentScratch(slots, r, self.dtype)
        self.perturb_result = PerturbedGradients()

    @classmethod
    def for_training(cls, model, sampler) -> "StepWorkspace":
        """The workspace of one run: the model's shape and dtype, the sampler's batch."""
        return cls(
            batch_size=sampler.batch_size,
            num_negatives=sampler.pool.num_negatives,
            embedding_dim=model.embedding_dim,
            num_nodes=model.num_nodes,
            dtype=model.w_in.dtype,
        )

    # ------------------------------------------------------------------ #
    def validate_batch(self, batch: SubgraphBatch) -> None:
        """Check an incoming batch against the preallocated buffer shapes."""
        if batch.contexts.shape != self.contexts.shape:
            raise ConfigurationError(
                f"batch shape {batch.contexts.shape} does not match workspace "
                f"buffers {self.contexts.shape}"
            )

    def __repr__(self) -> str:
        return (
            f"StepWorkspace(batch_size={self.batch_size}, "
            f"num_negatives={self.num_negatives}, "
            f"embedding_dim={self.embedding_dim}, num_nodes={self.num_nodes}, "
            f"dtype={self.dtype.name})"
        )

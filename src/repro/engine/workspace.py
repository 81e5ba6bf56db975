"""Preallocated per-step workspaces: every training step runs allocation-free.

An engine step needs roughly ten arrays — the batch gather, the
``[B, 1+k, r]`` context-vector block, the score and error blocks, the
``W_in`` gradient rows, clipping quotients, segment-sum scratch, Gaussian
noise — and on large graphs allocating them per step would dominate the
step time.  The ``W_out`` gradient needs no block of its own: it is the
rank-1 product of the ``[B, 1+k]`` errors and the ``[B, r]`` centre rows,
and the segment sums form each product only when they gather it.
:class:`StepWorkspace` allocates each of them once per
:meth:`~repro.engine.core.TrainingEngine.run`, and the step threads it
through every phase:

* ``SubgraphSampler.sample_batch_arrays(workspace)`` fills the batch
  buffers in place via ``np.take(..., out=..., mode="clip")``,
* ``StructurePreferenceObjective.batch_gradients(..., workspace=...)``
  computes scores, losses, errors and the ``W_in`` gradient rows with
  ``out=`` ufuncs and einsums into the preallocated blocks,
* the perturbation strategies clip in place (the ``W_out`` norm is
  ``‖errors_b‖·‖centre_b‖``, and clipping rescales the error row) and run
  their aggregate → noise pipeline inside the two :class:`_SegmentScratch`
  blocks, drawing Gaussians into a reused float64 buffer, and
* the update rules descend through the same scratch and leave the moved
  rows and their step in :class:`MovedRows` records (the iterate averaging
  reads them).

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
    "MovedRows",
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
    3. initialise each segment sum with its *first* slot's value (one
       gather), then fold in the duplicate slots one multiplicity layer at
       a time: every segment's first duplicate in one take → add → put,
       then every second duplicate, and so on.  A segment appears at most
       once per layer, so each put is conflict-free, and each segment adds
       its slots in their original order — the same sums, bit for bit, as
       ``np.add.at`` over the sorted slots.

    A slot's value is either an explicit row (``W_in``: one gradient row
    per example) or a rank-1 product gathered on demand (``W_out``: the
    weighted error of the slot times its example's centre row), so the
    ``W_out`` gradient block is never materialised.

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
        self.layer_keys = np.empty(slots, dtype=np.int64)
        self.dup_keys = np.empty(slots, dtype=np.int64)
        self.layer_starts = np.empty(slots, dtype=np.int64)
        self.index_scratch = np.empty(slots, dtype=np.int64)
        self.dup_positions = np.empty(slots, dtype=np.int64)
        self.dup_segments = np.empty(slots, dtype=np.int64)
        self.owners = np.empty(slots, dtype=np.int64)
        self.factors = np.empty(slots, dtype=dtype)
        self.count_ints = np.empty(slots, dtype=np.int64)
        self.sums = np.empty((slots, dim), dtype=dtype)
        self.counts = np.empty(slots, dtype=dtype)
        self.unique_rows = np.empty(slots, dtype=np.int64)
        # One block serves the three value scratches, whose lifetimes never
        # overlap within a step: duplicate slots (and the per-layer staging
        # behind them) during ``reduce``, then the noise staged into
        # ``sums``, then the gathered parameter rows of the descent.
        block = np.empty((slots, dim), dtype=dtype)
        self.dup_values = block
        #: compute-dtype staging for the noise: a cross-dtype ufunc would
        #: allocate casting buffers, np.copyto into this one does not
        self.noise_cast = block
        self.gather = block
        #: float64 regardless of the compute dtype — DP noise is calibrated
        #: and drawn in full precision, then added into the compute buffers.
        #: A float32 descent then keeps the moved rows' old values here.
        self.noise = (
            block if dtype == np.dtype(np.float64)
            else np.empty((slots, dim), dtype=np.float64)
        )
        self.arange = np.arange(slots, dtype=np.int64)

    @zero_alloc
    def reduce(
        self, rows: np.ndarray, values: np.ndarray, scale: np.ndarray | None = None
    ) -> int:
        """Segment-sum the slot values by ``rows``; return the unique-row count ``U``.

        Slot ``s`` carries ``values[s]``, or, given ``scale``, the rank-1
        product ``scale[s] · values[s // m]`` with ``m = slots / len(values)``
        slots per row of ``values`` (the ``W_out`` gradient: the weighted
        error of a context slot times its example's centre row).

        After the call ``unique_rows[:U]`` holds the sorted unique rows,
        ``sums[:U]`` their summed values and ``counts[:U]`` how many slots
        hit each row.  ``rows`` must hold exactly ``self.slots``
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

        # seed every segment with its first slot's value ...
        first_slots = self.index_scratch[:unique]
        np.take(self.slot_of, bounds[:unique], out=first_slots, mode="clip")
        self._gather(first_slots, values, scale, self.sums[:unique])
        # ... then fold in the duplicate slots (few, for real batches)
        if unique < slots:
            self._fold_duplicates(unique, values, scale)

        ints = self.count_ints
        if unique > 1:
            np.subtract(bounds[1:unique], bounds[: unique - 1], out=ints[: unique - 1])
        ints[unique - 1] = slots - bounds[unique - 1]
        np.copyto(self.counts[:unique], ints[:unique], casting="unsafe")
        return unique

    @zero_alloc
    def _fold_duplicates(
        self, unique: int, values: np.ndarray, scale: np.ndarray | None
    ) -> None:
        """Add every non-first slot into its segment sum, one layer at a time.

        Layer ``j`` holds each segment's ``j``-th duplicate.  Ordering the
        duplicates by ``(layer, sorted position)`` makes every layer one
        contiguous run, and layers run in ascending order, so each
        segment's slots still add in their original order.
        """
        slots = self.slots
        duplicates = slots - unique
        segment_ids = self.segment_ids
        np.cumsum(self.flags, out=segment_ids)
        np.subtract(segment_ids, 1, out=segment_ids)
        # rank of each sorted position within its segment (0 = first slot),
        # packed with the position into one sortable key
        keys = self.layer_keys
        np.take(self.bounds, segment_ids, out=keys, mode="clip")
        np.subtract(self.arange, keys, out=keys)
        np.multiply(keys, slots, out=keys)
        np.add(keys, self.arange, out=keys)
        np.logical_not(self.flags, out=self.dup_flags)
        dup_keys = self.dup_keys[:duplicates]
        np.compress(self.dup_flags, keys, out=dup_keys)
        dup_keys.sort()
        positions = self.dup_positions[:duplicates]
        np.remainder(dup_keys, slots, out=positions)
        np.floor_divide(dup_keys, slots, out=dup_keys)

        layer_flags = self.dup_flags[:duplicates]
        layer_flags[0] = True
        np.not_equal(dup_keys[1:], dup_keys[:-1], out=layer_flags[1:])
        layers = int(np.count_nonzero(layer_flags))
        starts = self.layer_starts[: layers + 1]
        np.compress(layer_flags, self.arange[:duplicates], out=starts[:layers])
        starts[layers] = duplicates

        segments = self.dup_segments[:duplicates]
        np.take(segment_ids, positions, out=segments, mode="clip")
        dup_slots = self.index_scratch[:duplicates]
        np.take(self.slot_of, positions, out=dup_slots, mode="clip")
        dup_values = self.dup_values
        self._gather(dup_slots, values, scale, dup_values[:duplicates])
        # a layer has at most ``unique`` entries and unique + duplicates =
        # slots, so the rows behind the duplicate values stage each layer
        sums = self.sums
        for layer in range(layers):
            start, stop = starts[layer], starts[layer + 1]
            layer_segments = segments[start:stop]
            staged = dup_values[duplicates : duplicates + stop - start]
            np.take(sums, layer_segments, axis=0, out=staged, mode="clip")
            np.add(staged, dup_values[start:stop], out=staged)
            sums[layer_segments] = staged

    @zero_alloc
    def _gather(
        self,
        slot_ids: np.ndarray,
        values: np.ndarray,
        scale: np.ndarray | None,
        out: np.ndarray,
    ) -> None:
        """Write the values of slots ``slot_ids`` into ``out`` (see :meth:`reduce`)."""
        if scale is None:
            np.take(values, slot_ids, axis=0, out=out, mode="clip")
            return
        count = slot_ids.shape[0]
        owners = self.owners[:count]
        np.floor_divide(slot_ids, self.slots // values.shape[0], out=owners)
        np.take(values, owners, axis=0, out=out, mode="clip")
        factors = self.factors[:count]
        np.take(scale, slot_ids, out=factors, mode="clip")
        np.multiply(out, factors[:, None], out=out)


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


@dataclass
class MovedRows:
    """The rows one step's descent moved in one matrix, and by how much.

    The update rules fill it: ``rows`` are the moved rows (sorted unique),
    ``step`` the rate-scaled rows subtracted from them and ``after`` their
    new values, both in the compute dtype.  A float32 step does not land
    exactly (``after`` is ``before − step`` rounded to float32), so a
    float32 run also keeps the old values in float64, ``before``, where
    ``before − after`` is exact; a float64 run leaves it ``None``.  On the
    touched-row path all three are views into the matrix's segment scratch,
    valid until the next step; naive Eq. 6 moves all ``|V|`` rows and
    reports fresh ``|V| × r`` arrays.
    """

    rows: np.ndarray | None = None
    step: np.ndarray | None = None
    after: np.ndarray | None = None
    before: np.ndarray | None = None


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
        # broadcastable view built once so the hot loop never re-slices
        self.weights_col = self.weights[:, None]
        # the W_out gradient stays in its rank-1 factors errors ⊗ center_vecs
        self.gradients = BatchGradients(
            centers=self.centers,
            center_gradients=self.center_gradients,
            context_nodes=self.contexts,
            context_errors=self.errors,
            center_vectors=self.center_vecs,
            losses=self.losses,
        )

        # ---- clipping scratch ----
        self.example_norms = np.empty(B, dtype=self.dtype)
        self.example_norms_col = self.example_norms[:, None]
        self.center_norms = np.empty(B, dtype=self.dtype)

        # ---- compact scatter scratch (direct descents and non-zero Eq. 9) ----
        self.center_scratch = _SegmentScratch(B, r, self.dtype)
        self.context_scratch = _SegmentScratch(slots, r, self.dtype)
        self.perturb_result = PerturbedGradients()
        #: what the last descent moved, ``W_in`` then ``W_out``
        self.moved = (MovedRows(), MovedRows())

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
    @zero_alloc
    def reduce_gradients(self, gradients: BatchGradients) -> tuple[int, int]:
        """Segment-sum both matrices' gradient rows into the two scratches.

        ``W_in`` sums its explicit rows; ``W_out`` sums the rank-1 products
        ``context_errors[b, n] · center_vectors[b]`` straight from the
        factors.  Returns the unique-row counts ``(U_in, U_out)``.
        """
        unique_in = self.center_scratch.reduce(gradients.centers, gradients.center_gradients)
        unique_out = self.context_scratch.reduce(
            gradients.context_nodes.reshape(-1),
            gradients.center_vectors,
            gradients.context_errors.reshape(-1),
        )
        return unique_in, unique_out

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

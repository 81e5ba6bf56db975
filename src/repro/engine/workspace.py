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
  blocks, drawing Gaussians into a reused buffer, and
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

# SciPy's private sparse kernels: ``import scipy.sparse`` loads them anyway,
# and unlike the public ``matrix @ x`` they accumulate into a caller's buffer
from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs

from ..analysis.markers import zero_alloc
from ..exceptions import ConfigurationError, TrainingError
from .batch import BatchGradients, SubgraphBatch

__all__ = [
    "MovedRows",
    "PerturbedGradients",
    "StepWorkspace",
    "covers_all_rows",
    "resolve_compute_dtype",
    "scatter_axpy",
]

#: the supported compute dtypes; the private step, its noise and the
#: accountant always run in float64 regardless of this knob.
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


@zero_alloc
def scatter_axpy(
    target: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    factors: np.ndarray,
    indptr: np.ndarray,
) -> None:
    """``target[rows[j]] += factors[j] · values[j]`` for each ``j``, in place.

    ``rows`` are int64, and unique when ``target`` is to take each step
    once (a repeated row takes the sum).  SciPy's C kernel ``csc_matvecs`` reads a ``|V| × U`` CSC
    matrix with one entry per column (column ``j`` holds ``factors[j]`` at
    row ``rows[j]``, so its ``indptr`` is ``0, 1, …, U``) and adds its
    product with ``values`` into ``target``: O(U·r) work and no
    ``|V|``-length array.  ``factors`` and ``indptr`` may be longer than
    ``U``; their prefixes are read.

    Each entry is one ``y += a·x``.  With ``a = −1`` that is exactly
    ``y − x``; with ``a = w`` it is ``w·x`` rounded, then added, as long as
    the kernel's build does not fuse the multiply-add (the x86-64 wheels do
    not).  The kernel checks nothing, and ``ravel()`` of a strided array is
    a copy the update would vanish into, so the target's layout, dtype and
    width are checked here, with the lengths of ``rows``, ``factors`` and
    ``indptr``, and every row is held to ``[0, |V|)`` (two scalar
    reductions); each failure raises :class:`~repro.exceptions.TrainingError`
    before anything is written.
    """
    count, dim = values.shape
    if (
        target.ndim != 2
        or target.shape[1] != dim
        or target.dtype != values.dtype
        or factors.dtype != values.dtype
        or not target.flags.c_contiguous
        or not values.flags.c_contiguous
    ):
        raise TrainingError(
            f"scatter-axpy needs a C-contiguous target of the step's dtype and width, "
            f"got {target.dtype} {target.shape} (order "
            f"{'C' if target.flags.c_contiguous else 'not C'}) for a {values.dtype} "
            f"step of width {dim}"
        )
    if rows.shape != (count,) or factors.shape[0] < count or indptr.shape[0] <= count:
        raise TrainingError(
            f"scatter-axpy needs one row, one factor and one indptr entry per step "
            f"row ({count}), got {rows.shape[0]}, {factors.shape[0]} and {indptr.shape[0]}"
        )
    if count and (rows.min() < 0 or rows.max() >= target.shape[0]):
        raise TrainingError(
            f"scatter rows must lie in [0, {target.shape[0]}), got "
            f"{rows.min()}..{rows.max()}"
        )
    csc_matvecs(
        target.shape[0], count, dim, indptr[: count + 1], rows, factors[:count],
        values.ravel(), target.ravel(),
    )


def covers_all_rows(rows: np.ndarray, num_rows: int) -> bool:
    """Whether ``rows`` are exactly ``0, 1, …, num_rows − 1``, in that order.

    Such a step can descend densely.  A step on fewer rows costs one length
    compare; only a full-length one (naive Eq. 6, which allocates anyway)
    is compared entry by entry, so a permutation is not taken for it.
    """
    return rows.shape[0] == num_rows and bool(np.array_equal(rows, np.arange(num_rows)))


class _SegmentScratch:
    """Buffers to segment-reduce a fixed number of scatter slots in place.

    The scatter updates need, per step, the *unique* touched parameter rows
    together with their summed gradients and touch counts.  ``np.unique`` +
    ``np.bincount`` produce fresh arrays every call (and ``np.add.reduceat``
    / axis-0 ``cumsum`` turn out to be several ms for these shapes); this
    scratch gets the same result through in-place primitives and one
    sparse × dense product:

    1. pack ``row * slots + slot`` into one int64 key array and sort it in
       place (rows ascending, original slot as tiebreak),
    2. mark segment boundaries with an in-place ``np.not_equal`` and
       compress them into the bounds buffer (``np.compress(..., out=...)``),
    3. read the bounds as the ``indptr`` of a ``U × len(values)`` CSR matrix
       with one entry per sorted slot: its column is the row of ``values``
       the slot reads, its value the slot's factor.  SciPy's C kernel
       ``csr_matvecs`` adds that matrix times ``values`` into ``sums[:U]``,
       pre-filled with ``-0.0``, without allocating.

    The kernel adds each segment's slots in ``indptr`` order, which is
    their original order, and ``-0.0 + p == p`` for every ``p`` (signed
    zeros and NaN included), so the sums equal, bit for bit, the first
    slot of each segment plus ``np.add.at`` over the others.

    A slot's value is either an explicit row (``W_in``: one gradient row
    per example, factor 1.0) or a rank-1 product (``W_out``: the weighted
    error of the slot times its example's centre row), so the ``W_out``
    gradient block is never materialised.

    All outputs are views into buffers owned by this object; they are valid
    until the next :meth:`reduce` call.
    """

    def __init__(self, slots: int, dim: int, dtype: np.dtype, num_nodes: int) -> None:
        self.slots = int(slots)
        #: ``|V|``: the reduce rejects a row id outside ``[0, |V|)``
        self.num_nodes = int(num_nodes)
        self.keys = np.empty(slots, dtype=np.int64)
        self.sorted_rows = np.empty(slots, dtype=np.int64)
        self.slot_of = np.empty(slots, dtype=np.int64)
        self.flags = np.empty(slots, dtype=bool)
        #: segment starts, then ``slots``: the CSR ``indptr``
        self.bounds = np.empty(slots + 1, dtype=np.int64)
        self.owners = np.empty(slots, dtype=np.int64)
        self.factors = np.empty(slots, dtype=dtype)
        self.ones = np.ones(slots, dtype=dtype)
        #: the factors of a descent's scatter-axpy, ``W[rows] += −1 · step``
        self.minus_ones = np.full(slots, -1.0, dtype=dtype)
        self.count_ints = np.empty(slots, dtype=np.int64)
        self.sums = np.empty((slots, dim), dtype=dtype)
        self.counts = np.empty(slots, dtype=dtype)
        self.unique_rows = np.empty(slots, dtype=np.int64)
        #: the Gaussian noise of a non-zero Eq. 9 step, added into ``sums``;
        #: ``None`` until :meth:`noise_rows` first asks for it, so a
        #: workspace that never perturbs (SE-GEmb) never holds it
        self.noise: np.ndarray | None = None
        #: ``0, 1, …, slots``: slot positions, and the ``indptr`` of a
        #: scatter-axpy over ``unique_rows`` (one entry per column)
        self.indptr = np.arange(slots + 1, dtype=np.int64)

    def noise_rows(self, count: int) -> np.ndarray:
        """The first ``count`` rows of the noise block, allocated on first use.

        The block takes the dtype of ``sums``; a private step runs in
        float64 only, so its noise is drawn in place here.
        """
        if self.noise is None:
            self.noise = np.empty_like(self.sums)
        return self.noise[:count]

    @zero_alloc
    def reduce(
        self, rows: np.ndarray, values: np.ndarray, scale: np.ndarray | None = None
    ) -> int:
        """Segment-sum the slot values by ``rows``; return the unique-row count ``U``.

        Slot ``s`` carries ``values[s // m]``, with ``m = slots / len(values)``
        slots per row of ``values``, times ``scale[s]`` if given: ``W_in``
        passes one gradient row per slot, ``W_out`` one centre row per
        example and each context slot's weighted error as its scale.

        After the call ``unique_rows[:U]`` holds the sorted unique rows,
        ``sums[:U]`` their summed values and ``counts[:U]`` how many slots
        hit each row.  ``rows`` must hold exactly ``self.slots`` entries; one
        outside ``[0, |V|)`` raises :class:`~repro.exceptions.TrainingError`.
        Within a segment, slots accumulate in their original order — the
        same order as ``np.add.at`` over sorted rows.
        """
        slots = self.slots
        sources, dim = values.shape
        sums = self.sums
        # the C kernel checks no bounds, and ravel() would copy a strided
        # array, so the shape, dtype and layout are checked here
        if (
            slots % sources
            or dim != sums.shape[1]
            or values.dtype != sums.dtype
            or not values.flags.c_contiguous
        ):
            raise TrainingError(
                f"segment values must be a C-contiguous {sums.dtype} array of "
                f"{sums.shape[1]} columns whose rows divide {slots} slots, got "
                f"{values.dtype} {values.shape}"
            )
        keys = self.keys
        np.multiply(rows, slots, out=keys)
        positions = self.indptr[:slots]
        np.add(keys, positions, out=keys)
        keys.sort()
        # both scalar reads come before anything is written: a foreign
        # batch id fails the step before either matrix moves
        if keys[0] < 0:
            raise TrainingError("segment rows must be non-negative, got a negative row id")
        if keys[-1] >= self.num_nodes * slots:
            raise TrainingError(
                f"segment rows must be below |V| = {self.num_nodes}, got row "
                f"{keys[-1] // slots}"
            )
        np.floor_divide(keys, slots, out=self.sorted_rows)
        np.remainder(keys, slots, out=self.slot_of)
        flags = self.flags
        flags[0] = True
        np.not_equal(self.sorted_rows[1:], self.sorted_rows[:-1], out=flags[1:])
        unique = int(np.count_nonzero(flags))
        bounds = self.bounds[: unique + 1]
        np.compress(flags, positions, out=bounds[:unique])
        bounds[unique] = slots
        np.take(self.sorted_rows, bounds[:unique], out=self.unique_rows[:unique], mode="clip")

        owners = self.owners
        np.floor_divide(self.slot_of, slots // sources, out=owners)
        factors = self.ones
        if scale is not None:
            factors = self.factors
            np.take(scale, self.slot_of, out=factors, mode="clip")
        out = sums[:unique]
        out.fill(-0.0)
        csr_matvecs(unique, sources, dim, bounds, owners, factors, values.ravel(), out.ravel())

        ints = self.count_ints[:unique]
        np.subtract(bounds[1:], bounds[:-1], out=ints)
        np.copyto(self.counts[:unique], ints, casting="unsafe")
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


@dataclass
class MovedRows:
    """The rows one step's descent moved in one matrix, and by how much.

    The update rules fill it: ``rows`` are the moved rows (sorted unique)
    and ``step`` the rate-scaled rows subtracted from them, in the compute
    dtype.  On the touched-row path both are views into the matrix's
    segment scratch, valid until the next step; naive Eq. 6 moves all
    ``|V|`` rows.
    """

    rows: np.ndarray | None = None
    step: np.ndarray | None = None


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
        ``"float64"``).  Index buffers are always int64.  A private step
        runs in float64 only (:class:`~repro.engine.updates.PerturbedUpdate`
        and the perturbation strategies reject anything else), so its noise
        blocks, allocated by its first step, are float64 too.
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
        self.center_scratch = _SegmentScratch(B, r, self.dtype, self.num_nodes)
        self.context_scratch = _SegmentScratch(slots, r, self.dtype, self.num_nodes)
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

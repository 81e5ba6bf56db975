"""Gradient perturbation strategies: naive (Eq. 6) vs non-zero (Eq. 9).

Both strategies follow the DPSGD recipe: per-example gradients are clipped
to ℓ2 norm ``C``, summed over the batch, noised with a Gaussian, and
averaged by the batch size ``B``.  They differ in *where* the noise goes and
in the sensitivity that calibrates it:

* :class:`NaivePerturbation` — the first-cut solution of Section III-B.
  Under node-level DP the summed gradient has worst-case sensitivity
  ``S = B·C`` (all B examples may involve the changed node), and the noise
  matrix ``N(S²σ²I)`` is dense: every row of the gradient receives noise,
  including rows whose gradient is exactly zero.
* :class:`NonZeroPerturbation` — the paper's noise-tolerance mechanism.
  Skip-gram gradients are sparse (one ``W_in`` row and ``k+1`` ``W_out``
  rows per example), so noise is injected only into the rows that are
  actually non-zero, calibrated with sensitivity ``C`` (one clipped example
  per touched row in the worst case).

The contrast between the two is the ablation of Table VI.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..analysis.markers import zero_alloc
from ..engine.batch import BatchGradients
from ..exceptions import ConfigurationError, TrainingError
from ..privacy.mechanisms import clip_gradient
from ..privacy.noise import NoiseRing
from .objectives import PairGradients

__all__ = [
    "PerturbedBatchGradients",
    "SparsePerturbedBatchGradients",
    "PerturbationStrategy",
    "NaivePerturbation",
    "NonZeroPerturbation",
    "get_perturbation",
]


def _segment_sum(
    segment_ids: np.ndarray, values: np.ndarray, num_segments: int
) -> np.ndarray:
    """Row-wise scatter-add ``values`` into ``num_segments`` rows, C-speed.

    Equivalent to ``np.add.at(out, segment_ids, values)`` (same sequential
    accumulation order, hence bitwise-identical sums) but implemented with a
    single flat ``np.bincount``, which is dramatically faster for the
    thousands of small rows a training batch touches.  The sums are
    accumulated in float64 (bincount's native dtype) and returned in the
    dtype of ``values`` so float32 compute runs stay float32 end to end.
    """
    dim = values.shape[1]
    flat_idx = (segment_ids[:, None] * dim + np.arange(dim)).ravel()
    flat = np.bincount(flat_idx, weights=values.ravel(), minlength=num_segments * dim)
    return flat.reshape(num_segments, dim).astype(values.dtype, copy=False)


@dataclass
class PerturbedBatchGradients:
    """Noisy batch gradients for both skip-gram matrices.

    ``w_in_gradient`` and ``w_out_gradient`` are dense *summed* (not yet
    averaged) gradients of the same shape as the model parameters; rows not
    touched by the batch are zero in the non-zero strategy and noisy in the
    naive strategy.  ``w_in_counts`` / ``w_out_counts`` record how many
    examples touched each row, so the trainer can choose its normalisation
    (divide by the batch size as in the paper's Eq. 9, or per-row counts).
    """

    w_in_gradient: np.ndarray
    w_out_gradient: np.ndarray
    w_in_counts: np.ndarray
    w_out_counts: np.ndarray
    batch_size: int
    mean_loss: float

    def averaged_by_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Eq. (9) normalisation: divide both sums by the batch size ``B``."""
        return self.w_in_gradient / self.batch_size, self.w_out_gradient / self.batch_size

    def averaged_by_row_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row normalisation: divide each row by the number of examples touching it.

        Rows touched by no example keep their value (zero for the non-zero
        strategy; pure noise for the naive strategy — which is exactly the
        penalty the naive strategy pays).
        """
        in_div = np.maximum(self.w_in_counts, 1.0)[:, None]
        out_div = np.maximum(self.w_out_counts, 1.0)[:, None]
        return self.w_in_gradient / in_div, self.w_out_gradient / out_div


@dataclass
class SparsePerturbedBatchGradients:
    """Noisy batch gradients stored only for the touched rows.

    The non-zero strategy (Eq. 9) leaves every untouched row exactly zero,
    so materialising two dense ``|V| × r`` matrices per step is wasted work
    at scale.  This container keeps the sorted touched-row indices and their
    compact gradient blocks; :meth:`averaged_rows` feeds a sparse descent
    directly, while the dense properties reconstruct the full matrices for
    callers written against :class:`PerturbedBatchGradients`.
    """

    w_in_rows: np.ndarray  # [U_in] sorted unique touched W_in rows
    w_in_gradient_rows: np.ndarray  # [U_in, r] noisy summed gradients
    w_in_row_counts: np.ndarray  # [U_in] examples touching each row
    w_out_rows: np.ndarray  # [U_out]
    w_out_gradient_rows: np.ndarray  # [U_out, r]
    w_out_row_counts: np.ndarray  # [U_out]
    num_nodes: int
    batch_size: int
    mean_loss: float

    def averaged_rows(
        self, normalization: str = "per_row"
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(w_in_rows, w_in_grads, w_out_rows, w_out_grads)`` averaged.

        ``normalization`` is ``"per_row"`` (divide each row by the number of
        examples that touched it) or ``"batch"`` (divide by ``B``, the
        literal Eq. 9).  Untouched rows are zero either way, so descending
        only on these rows matches the dense update exactly.
        """
        if normalization == "batch":
            return (
                self.w_in_rows,
                self.w_in_gradient_rows / self.batch_size,
                self.w_out_rows,
                self.w_out_gradient_rows / self.batch_size,
            )
        if normalization == "per_row":
            return (
                self.w_in_rows,
                self.w_in_gradient_rows / np.maximum(self.w_in_row_counts, 1.0)[:, None],
                self.w_out_rows,
                self.w_out_gradient_rows / np.maximum(self.w_out_row_counts, 1.0)[:, None],
            )
        raise TrainingError(
            f"normalization must be 'per_row' or 'batch', got {normalization!r}"
        )

    # ----------------------- dense compatibility ---------------------- #
    def _densify(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        dense = np.zeros((self.num_nodes, values.shape[1]), dtype=values.dtype)
        dense[rows] = values
        return dense

    @property
    def w_in_gradient(self) -> np.ndarray:
        """Dense ``|V| × r`` view of the noisy summed ``W_in`` gradient."""
        return self._densify(self.w_in_rows, self.w_in_gradient_rows)

    @property
    def w_out_gradient(self) -> np.ndarray:
        """Dense ``|V| × r`` view of the noisy summed ``W_out`` gradient."""
        return self._densify(self.w_out_rows, self.w_out_gradient_rows)

    @property
    def w_in_counts(self) -> np.ndarray:
        """Dense per-row example counts for ``W_in``."""
        counts = np.zeros(self.num_nodes, dtype=self.w_in_row_counts.dtype)
        counts[self.w_in_rows] = self.w_in_row_counts
        return counts

    @property
    def w_out_counts(self) -> np.ndarray:
        """Dense per-row example counts for ``W_out``."""
        counts = np.zeros(self.num_nodes, dtype=self.w_out_row_counts.dtype)
        counts[self.w_out_rows] = self.w_out_row_counts
        return counts

    def averaged_by_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense Eq. (9) normalisation (compatibility path)."""
        rows_in, g_in, rows_out, g_out = self.averaged_rows("batch")
        return self._densify(rows_in, g_in), self._densify(rows_out, g_out)

    def averaged_by_row_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense per-row normalisation (compatibility path)."""
        rows_in, g_in, rows_out, g_out = self.averaged_rows("per_row")
        return self._densify(rows_in, g_in), self._densify(rows_out, g_out)


class PerturbationStrategy(abc.ABC):
    """Base class: clip, aggregate, noise, and average per-example gradients.

    Parameters
    ----------
    clipping_threshold:
        Per-example ℓ2 clipping threshold ``C``.
    noise_multiplier:
        Gaussian noise multiplier ``σ``; the injected noise std is
        ``σ · sensitivity``.
    seed:
        Seed or generator of the noise stream; the strategy's
        :class:`~repro.privacy.noise.NoiseRing` owns it, so nothing else
        may draw from a generator passed here.
    """

    name: str = "base"

    def __init__(
        self,
        clipping_threshold: float,
        noise_multiplier: float,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if clipping_threshold <= 0:
            raise ConfigurationError(
                f"clipping_threshold must be positive, got {clipping_threshold}"
            )
        if noise_multiplier <= 0:
            raise ConfigurationError(
                f"noise_multiplier must be positive, got {noise_multiplier}"
            )
        self.clipping_threshold = float(clipping_threshold)
        self.noise_multiplier = float(noise_multiplier)
        self.noise = NoiseRing(seed)

    # ------------------------------------------------------------------ #
    def perturb(
        self,
        example_gradients: list[PairGradients],
        num_nodes: int,
        embedding_dim: int,
    ) -> PerturbedBatchGradients:
        """Clip each example, aggregate over the batch, add noise, and average."""
        if not example_gradients:
            raise TrainingError("example_gradients must not be empty")
        batch_size = len(example_gradients)

        w_in_sum = np.zeros((num_nodes, embedding_dim))
        w_out_sum = np.zeros((num_nodes, embedding_dim))
        w_in_counts = np.zeros(num_nodes)
        w_out_counts = np.zeros(num_nodes)
        touched_in: set[int] = set()
        touched_out: set[int] = set()
        total_loss = 0.0

        for example in example_gradients:
            clipped_center = clip_gradient(example.center_gradient, self.clipping_threshold)
            w_in_sum[example.center] += clipped_center
            w_in_counts[example.center] += 1
            touched_in.add(int(example.center))

            clipped_context = self._clip_context_rows(example.context_gradients)
            np.add.at(w_out_sum, example.context_nodes, clipped_context)
            np.add.at(w_out_counts, example.context_nodes, 1)
            touched_out.update(int(n) for n in example.context_nodes)

            total_loss += example.loss

        w_in_noisy = self._add_noise(w_in_sum, sorted(touched_in), batch_size)
        w_out_noisy = self._add_noise(w_out_sum, sorted(touched_out), batch_size)

        return PerturbedBatchGradients(
            w_in_gradient=w_in_noisy,
            w_out_gradient=w_out_noisy,
            w_in_counts=w_in_counts,
            w_out_counts=w_out_counts,
            batch_size=batch_size,
            mean_loss=total_loss / batch_size,
        )

    def _clip_context_rows(self, context_gradients: np.ndarray) -> np.ndarray:
        """Clip the joint (k+1)-row context gradient of one example to norm C."""
        return clip_gradient(context_gradients, self.clipping_threshold)

    # ------------------------------------------------------------------ #
    def _clip_batch(
        self, batch_gradients: BatchGradients
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized per-example clipping over the same ℓ2 blocks as Eq. (3).

        The norm of each example is taken over one ``W_in`` row and over the
        joint ``(k+1)``-row ``W_out`` block respectively, matching the
        per-example :func:`clip_gradient` calls of the list-based path.
        """
        threshold = self.clipping_threshold

        center_grads = batch_gradients.center_gradients  # [B, r]
        center_norms = np.sqrt(np.einsum("br,br->b", center_grads, center_grads))
        clipped_centers = center_grads / np.maximum(1.0, center_norms / threshold)[:, None]

        context_grads = batch_gradients.context_gradients  # [B, 1+k, r]
        context_norms = np.sqrt(np.einsum("bkr,bkr->b", context_grads, context_grads))
        clipped_contexts = (
            context_grads / np.maximum(1.0, context_norms / threshold)[:, None, None]
        )
        return clipped_centers, clipped_contexts

    def perturb_batch(
        self,
        batch_gradients: BatchGradients,
        num_nodes: int,
        embedding_dim: int,
        *,
        workspace=None,
    ) -> PerturbedBatchGradients | SparsePerturbedBatchGradients:
        """Vectorized :meth:`perturb`: clip → aggregate → noise, no Python loop.

        Numerically equivalent to the per-example path — per-example ℓ2
        norms are taken over the same blocks (one ``W_in`` row; the joint
        ``(k+1)``-row ``W_out`` block), clipping happens before noising
        exactly as Eq. (9) prescribes, and the noise is drawn for the same
        sorted set of touched rows so the RNG stream matches draw for draw.

        ``workspace`` is accepted by every strategy for interface
        uniformity; only strategies with a compact result (the non-zero
        Eq. 9) use it — the dense Eq. 6 noise matrix is inherently a fresh
        ``|V| × r`` draw, so this base implementation ignores it.
        """
        del workspace  # dense strategies have no allocation-free form
        batch_size = len(batch_gradients)
        if batch_size == 0:
            raise TrainingError("batch_gradients must not be empty")
        clipped_centers, clipped_contexts = self._clip_batch(batch_gradients)
        dtype = clipped_centers.dtype

        w_in_sum = np.zeros((num_nodes, embedding_dim), dtype=dtype)
        w_in_counts = np.zeros(num_nodes, dtype=dtype)
        np.add.at(w_in_sum, batch_gradients.centers, clipped_centers)
        np.add.at(w_in_counts, batch_gradients.centers, 1)

        flat_contexts = batch_gradients.context_nodes.reshape(-1)
        w_out_sum = np.zeros((num_nodes, embedding_dim), dtype=dtype)
        w_out_counts = np.zeros(num_nodes, dtype=dtype)
        np.add.at(w_out_sum, flat_contexts, clipped_contexts.reshape(-1, embedding_dim))
        np.add.at(w_out_counts, flat_contexts, 1)

        w_in_noisy = self._add_noise(w_in_sum, np.unique(batch_gradients.centers), batch_size)
        w_out_noisy = self._add_noise(w_out_sum, np.unique(flat_contexts), batch_size)

        return PerturbedBatchGradients(
            w_in_gradient=w_in_noisy,
            w_out_gradient=w_out_noisy,
            w_in_counts=w_in_counts,
            w_out_counts=w_out_counts,
            batch_size=batch_size,
            mean_loss=batch_gradients.mean_loss,
        )

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def sensitivity(self, batch_size: int) -> float:
        """The ℓ2 sensitivity used to calibrate the injected noise."""

    @abc.abstractmethod
    def _add_noise(
        self,
        gradient_sum: np.ndarray,
        touched_rows: Sequence[int] | np.ndarray,
        batch_size: int,
    ) -> np.ndarray:
        """Inject Gaussian noise into the summed gradient and return it."""


class NaivePerturbation(PerturbationStrategy):
    """Eq. (6): dense noise with batch-level sensitivity ``B · C``."""

    name = "naive"

    def sensitivity(self, batch_size: int) -> float:
        """Worst-case node-level sensitivity of the summed gradient: ``B·C``."""
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        return self.clipping_threshold * batch_size

    def _add_noise(
        self,
        gradient_sum: np.ndarray,
        touched_rows: Sequence[int] | np.ndarray,
        batch_size: int,
    ) -> np.ndarray:
        std = self.noise_multiplier * self.sensitivity(batch_size)
        # noise is always drawn in float64 (the DP calibration is exact);
        # the sum keeps the compute dtype of the gradients
        noise = self.noise.draw(gradient_sum.shape, std)
        return (gradient_sum + noise).astype(gradient_sum.dtype, copy=False)


class NonZeroPerturbation(PerturbationStrategy):
    """Eq. (9): noise only on non-zero gradient rows, sensitivity ``C``."""

    name = "nonzero"

    def perturb_batch(
        self,
        batch_gradients: BatchGradients,
        num_nodes: int,
        embedding_dim: int,
        *,
        workspace=None,
    ) -> SparsePerturbedBatchGradients:
        """Compact fast path: everything stays in touched-row space.

        Untouched rows are exactly zero under Eq. (9), so the clip →
        aggregate → noise pipeline never materialises the dense ``|V| × r``
        matrices — sums are bincount segment-sums over the unique touched
        rows and the Gaussian draw covers exactly those rows, in the same
        sorted order (and hence the same RNG stream) as the dense paths.

        With a :class:`~repro.engine.StepWorkspace` the same pipeline runs
        allocation-free through the workspace's segment scratch (in-place
        sort + ``reduceat`` instead of ``unique`` + ``bincount``) and the
        scaled Gaussians land in a reused float64 buffer via
        :meth:`~repro.privacy.noise.NoiseRing.fill` — same draw count,
        order and values as the allocating path, so the noise stream stays
        pinned.
        """
        batch_size = len(batch_gradients)
        if batch_size == 0:
            raise TrainingError("batch_gradients must not be empty")
        if workspace is not None:
            return self._perturb_batch_into(
                batch_gradients, num_nodes, embedding_dim, workspace
            )
        clipped_centers, clipped_contexts = self._clip_batch(batch_gradients)
        dtype = clipped_centers.dtype
        std = self.noise_multiplier * self.sensitivity(batch_size)

        w_in_rows, inverse_in = np.unique(batch_gradients.centers, return_inverse=True)
        w_in_grads = _segment_sum(inverse_in, clipped_centers, w_in_rows.size)
        w_in_counts = np.bincount(inverse_in, minlength=w_in_rows.size).astype(dtype)
        w_in_grads += self.noise.draw((w_in_rows.size, embedding_dim), std)

        flat_contexts = batch_gradients.context_nodes.reshape(-1)
        w_out_rows, inverse_out = np.unique(flat_contexts, return_inverse=True)
        w_out_grads = _segment_sum(
            inverse_out, clipped_contexts.reshape(-1, embedding_dim), w_out_rows.size
        )
        w_out_counts = np.bincount(inverse_out, minlength=w_out_rows.size).astype(dtype)
        w_out_grads += self.noise.draw((w_out_rows.size, embedding_dim), std)

        return SparsePerturbedBatchGradients(
            w_in_rows=w_in_rows,
            w_in_gradient_rows=w_in_grads,
            w_in_row_counts=w_in_counts,
            w_out_rows=w_out_rows,
            w_out_gradient_rows=w_out_grads,
            w_out_row_counts=w_out_counts,
            num_nodes=num_nodes,
            batch_size=batch_size,
            mean_loss=batch_gradients.mean_loss,
        )

    # ------------------------------------------------------------------ #
    @zero_alloc
    def _clip_batch_inplace(self, batch_gradients: BatchGradients, workspace) -> None:
        """Per-example Eq. (3) clipping, mutating the workspace gradient buffers.

        Same ℓ2 blocks as :meth:`_clip_batch`; legal only because the fast
        path owns the gradient buffers and overwrites them next step anyway.
        """
        threshold = self.clipping_threshold
        ws = workspace
        norms = ws.example_norms
        center_grads = batch_gradients.center_gradients
        np.einsum("br,br->b", center_grads, center_grads, out=norms)
        np.sqrt(norms, out=norms)
        np.divide(norms, threshold, out=norms)
        np.maximum(norms, 1.0, out=norms)
        np.divide(center_grads, ws.example_norms_col, out=center_grads)

        context_grads = batch_gradients.context_gradients
        np.einsum("bkr,bkr->b", context_grads, context_grads, out=norms)
        np.sqrt(norms, out=norms)
        np.divide(norms, threshold, out=norms)
        np.maximum(norms, 1.0, out=norms)
        np.divide(context_grads, ws.example_norms_col3, out=context_grads)

    @zero_alloc
    def _perturb_batch_into(
        self,
        batch_gradients: BatchGradients,
        num_nodes: int,
        embedding_dim: int,
        workspace,
    ):
        """Allocation-free Eq. (9): clip in place, segment-reduce, noise in place.

        Returns the workspace's reused
        :class:`~repro.engine.workspace.WorkspacePerturbedGradients` holding
        views into the scratch buffers — valid until the next step.  Unlike
        the default path, clipping MUTATES the incoming gradient buffers
        (they are workspace scratch on the engine's fast path; copy first if
        you pass your own and still need the raw values).
        """
        del num_nodes, embedding_dim  # bound by the workspace geometry
        ws = workspace
        batch_size = len(batch_gradients)
        if batch_gradients.context_gradients.shape != ws.context_gradients.shape:
            raise TrainingError(
                f"batch gradients shape {batch_gradients.context_gradients.shape} "
                f"does not match the workspace geometry {ws.context_gradients.shape}"
            )
        self._clip_batch_inplace(batch_gradients, ws)
        std = self.noise_multiplier * self.sensitivity(batch_size)

        result = ws.perturb_result
        result.batch_size = batch_size
        result.mean_loss = batch_gradients.mean_loss
        if batch_gradients is ws.gradients:
            flat_rows = ws.contexts_flat
            flat_values = ws.context_gradients_flat
        else:  # foreign gradients: reshape views, still no data copies
            flat_rows = batch_gradients.context_nodes.reshape(-1)
            flat_values = batch_gradients.context_gradients.reshape(
                -1, batch_gradients.context_gradients.shape[-1]
            )
        phases = (
            ("w_in", ws.center_scratch, batch_gradients.centers,
             batch_gradients.center_gradients),
            ("w_out", ws.context_scratch, flat_rows, flat_values),
        )
        for prefix, scratch, rows, values in phases:
            unique = scratch.reduce(rows, values)
            noise = self.noise.fill(scratch.noise[:unique], std)
            sums = scratch.sums[:unique]
            if scratch.noise_cast is not scratch.noise:
                # stage the float64 draws in the compute dtype: copyto casts
                # in place, a cross-dtype np.add would allocate buffers
                noise = scratch.noise_cast[:unique]
                np.copyto(noise, scratch.noise[:unique], casting="same_kind")
            np.add(sums, noise, out=sums)
            setattr(result, f"{prefix}_rows", scratch.unique_rows[:unique])
            setattr(result, f"{prefix}_sums", sums)
            setattr(result, f"{prefix}_counts", scratch.counts[:unique])
        return result

    def sensitivity(self, batch_size: int) -> float:
        """Per-row sensitivity of the non-zero rows: the clipping threshold ``C``."""
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        return self.clipping_threshold

    def _add_noise(
        self,
        gradient_sum: np.ndarray,
        touched_rows: Sequence[int] | np.ndarray,
        batch_size: int,
    ) -> np.ndarray:
        noisy = gradient_sum.copy()
        rows = np.asarray(touched_rows, dtype=np.int64)
        if rows.size:
            std = self.noise_multiplier * self.sensitivity(batch_size)
            noise = self.noise.draw((rows.size, gradient_sum.shape[1]), std)
            noisy[rows] += noise
        return noisy


_STRATEGIES: dict[str, type[PerturbationStrategy]] = {
    NaivePerturbation.name: NaivePerturbation,
    NonZeroPerturbation.name: NonZeroPerturbation,
}


def get_perturbation(
    name: str,
    clipping_threshold: float,
    noise_multiplier: float,
    seed: int | np.random.Generator | None = None,
) -> PerturbationStrategy:
    """Instantiate a perturbation strategy by name (``"naive"`` or ``"nonzero"``)."""
    key = name.strip().lower()
    if key not in _STRATEGIES:
        raise ConfigurationError(
            f"unknown perturbation strategy {name!r}; available: {sorted(_STRATEGIES)}"
        )
    return _STRATEGIES[key](clipping_threshold, noise_multiplier, seed=seed)

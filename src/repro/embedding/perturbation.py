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
  actually non-zero, calibrated with sensitivity ``C``.  That calibration
  assumes one clipped example per touched row, which sampled batches do
  not meet (see the class docstring).

The contrast between the two is the ablation of Table VI.

Both run on the engine's :class:`~repro.engine.StepWorkspace`: clipping
mutates the workspace gradient buffers in place, both strategies sum the
clipped rows through the workspace's segment scratch, and the result is
the one :class:`~repro.engine.PerturbedGradients` type — noisy summed rows
plus per-row touch counts, averaged afterwards by the update rule.
"""

from __future__ import annotations

import abc

import numpy as np

from ..analysis.markers import zero_alloc
from ..engine.batch import BatchGradients
from ..engine.workspace import PerturbedGradients, StepWorkspace
from ..exceptions import ConfigurationError, TrainingError
from ..privacy.noise import NoiseRing

__all__ = [
    "PerturbationStrategy",
    "NaivePerturbation",
    "NonZeroPerturbation",
    "get_perturbation",
]


class PerturbationStrategy(abc.ABC):
    """Base class: clip, aggregate and noise per-example gradients.

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
    def perturb_batch(
        self, batch_gradients: BatchGradients, workspace: StepWorkspace
    ) -> PerturbedGradients:
        """Clip each example, aggregate over the batch and add the noise.

        Per-example ℓ2 norms are taken over one ``W_in`` row and over the
        joint ``(k+1)``-row ``W_out`` block (Eq. 3); clipping happens
        before noising exactly as Eq. (9) prescribes, and it MUTATES the
        incoming gradient buffers (workspace scratch on the engine's path;
        copy first if you pass your own and still need the raw values).

        Returns the workspace's reused :class:`PerturbedGradients`, valid
        until the next step.  Allocation-free for non-zero Eq. 9 once the
        workspace holds its noise blocks (the first call allocates them);
        naive Eq. 6 allocates its dense ``|V| × r`` noise.

        The noise is calibrated and drawn in float64, so a workspace of any
        other dtype raises :class:`~repro.exceptions.TrainingError` before
        clipping touches the gradients.
        """
        ws = workspace
        batch_size = len(batch_gradients)
        if ws.dtype != np.float64:
            raise TrainingError(
                f"a private step runs in float64 only, got a {ws.dtype} workspace"
            )
        if batch_gradients.context_errors.shape != ws.errors.shape:
            raise TrainingError(
                f"batch gradients shape {batch_gradients.context_errors.shape} "
                f"does not match the workspace geometry {ws.errors.shape}"
            )
        self._clip_batch(batch_gradients, ws)
        std = self.noise_multiplier * self.sensitivity(batch_size)

        result = ws.perturb_result
        result.batch_size = batch_size
        result.mean_loss = batch_gradients.mean_loss
        unique_in, unique_out = ws.reduce_gradients(batch_gradients)
        result.w_in_rows, result.w_in_sums, result.w_in_counts = self._noisy_rows(
            ws.center_scratch, unique_in, std, ws.num_nodes
        )
        result.w_out_rows, result.w_out_sums, result.w_out_counts = self._noisy_rows(
            ws.context_scratch, unique_out, std, ws.num_nodes
        )
        return result

    @zero_alloc
    def _clip_batch(self, batch_gradients: BatchGradients, workspace) -> None:
        """Per-example Eq. (3) clipping, in place in the gradient buffers.

        The ``W_out`` block of example ``b`` is ``e_b ⊗ c_b`` (errors times
        centre row), so its Frobenius norm is ``‖e_b‖·‖c_b‖`` and clipping
        it rescales the error row alone.  An example under the threshold
        is divided by exactly 1.0, which leaves its bits unchanged.
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

        errors = batch_gradients.context_errors
        center_rows = batch_gradients.center_vectors
        np.einsum("bk,bk->b", errors, errors, out=norms)
        np.einsum("br,br->b", center_rows, center_rows, out=ws.center_norms)
        np.multiply(norms, ws.center_norms, out=norms)
        np.sqrt(norms, out=norms)
        np.divide(norms, threshold, out=norms)
        np.maximum(norms, 1.0, out=norms)
        np.divide(errors, ws.example_norms_col, out=errors)

    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def sensitivity(self, batch_size: int) -> float:
        """The ℓ2 sensitivity used to calibrate the injected noise."""

    @abc.abstractmethod
    def _noisy_rows(
        self, scratch, unique: int, std: float, num_nodes: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Noise the ``unique`` segment sums of ``scratch``: ``(rows, sums, counts)``."""


class NaivePerturbation(PerturbationStrategy):
    """Eq. (6): dense noise with batch-level sensitivity ``B · C``."""

    name = "naive"

    def sensitivity(self, batch_size: int) -> float:
        """Worst-case node-level sensitivity of the summed gradient: ``B·C``."""
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        return self.clipping_threshold * batch_size

    def _noisy_rows(self, scratch, unique, std, num_nodes):
        # every row of the matrix gets noise, touched or not: the dense
        # |V| x r draw is inherent to Eq. 6, so this ablation allocates
        rows = scratch.unique_rows[:unique]
        sums = np.zeros((num_nodes, scratch.sums.shape[1]), dtype=scratch.sums.dtype)
        sums[rows] = scratch.sums[:unique]
        counts = np.zeros(num_nodes, dtype=scratch.counts.dtype)
        counts[rows] = scratch.counts[:unique]
        sums += self.noise.draw(sums.shape, std)
        return np.arange(num_nodes), sums, counts


class NonZeroPerturbation(PerturbationStrategy):
    """Eq. (9): noise only on non-zero gradient rows, sensitivity ``C``.

    Untouched rows are exactly zero under Eq. (9), so the pipeline stays in
    touched-row space: the workspace's segment scratch sums the clipped
    rows (in-place sort + segment reduction), and the scaled Gaussians for
    exactly those rows, in sorted order, land in the scratch's reused
    float64 noise block (allocated by the first step) via
    :meth:`~repro.privacy.noise.NoiseRing.fill`.

    Sensitivity ``C`` is the paper's calibration and holds only if each
    touched row collects at most one clipped example per step.  Sampled
    batches do not meet that assumption: in a default private fit the
    most-touched row collects a median of 6 and up to 12 examples per
    step, so a row's sum can move by up to that many times ``C``.  The
    privacy unit and a sensitivity that holds by construction are
    ROADMAP item 6.
    """

    name = "nonzero"

    def sensitivity(self, batch_size: int) -> float:
        """Per-row sensitivity of the non-zero rows: the clipping threshold ``C``."""
        if batch_size < 1:
            raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
        return self.clipping_threshold

    @zero_alloc
    def _noisy_rows(self, scratch, unique, std, num_nodes):
        del num_nodes  # only the touched rows are reported
        noise = self.noise.fill(scratch.noise_rows(unique), std)
        sums = scratch.sums[:unique]
        np.add(sums, noise, out=sums)
        return scratch.unique_rows[:unique], sums, scratch.counts[:unique]


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

"""The structure-preference skip-gram objective and its gradients.

Eq. (5) of the paper defines, for each observed edge ``(v_i, v_j)`` with
proximity weight ``p_ij``:

``L_nov(v_i, v_j, p_ij) = -p_ij log σ(v_j · v_i)
                          - p_ij Σ_{n=1..k} E_{v_n ~ P_n} log σ(-v_n · v_i)``

Its gradients (Eq. 7 and Eq. 8) touch only the centre row of ``W_in`` and the
``k + 1`` sampled rows of ``W_out``:

* ``∂L/∂v_i  = p_ij Σ_{n=0..k} (σ(v_n·v_i) - 1[v_n = v_j]) v_n``
* ``∂L/∂v_n  = p_ij (σ(v_n·v_i) - 1[v_n = v_j]) v_i``

where ``n = 0`` denotes the positive node ``v_j``.  That sparsity is exactly
what the non-zero perturbation strategy exploits.

The ``W_out`` gradient of one example is rank 1: the ``1+k`` weighted errors
``p_ij (σ(v_n·v_i) - 1[v_n = v_j])`` times the one centre row ``v_i``.  The
batch pass returns it in those two factors and never builds the
``[B, 1+k, r]`` block; clipping takes its norm as ``‖e‖·‖v_i‖`` and the
segment sums form each row's product only when they gather it.
"""

from __future__ import annotations

import numpy as np

from ..analysis.markers import zero_alloc
from ..engine.batch import BatchGradients, SubgraphBatch
from ..exceptions import TrainingError
from ..proximity.base import ProximityMatrix

__all__ = ["StructurePreferenceObjective"]

# Mirrors the exp() clamp inside utils.math.sigmoid: at |score| = 35 the
# sigmoid saturates to within 1e-15 of {0, 1}, so clamping the workspace
# score buffer in place is numerically indistinguishable from that
# sigmoid while keeping every exp() finite in float32.
_SCORE_CLAMP = 35.0


class StructurePreferenceObjective:
    """Binds a proximity matrix to the skip-gram objective of Eq. (5).

    The objective supplies, per edge subgraph, the proximity weight
    ``p_ij``; the proximity's own
    :meth:`~repro.proximity.base.ProximityMatrix.negative_sampling_mass`
    gives the Theorem-3 mass ``min(P)/Σ_j p_ij`` that makes the optimum
    preserve ``log(p_ij / (k · min(P)))``.

    Parameters
    ----------
    proximity:
        The computed :class:`ProximityMatrix`.
    weight_floor:
        Proximity values below this floor are lifted to it so that every
        observed edge retains a non-zero learning signal even if the chosen
        proximity assigns it zero (e.g. common neighbours of a degree-1
        node).  Set to 0 to disable.
    normalize_weights:
        If ``True`` (default), edge weights are divided by ``max(P)`` so the
        loss multiplier lies in ``(0, 1]``.  Rescaling the whole proximity
        matrix leaves the Theorem-3 optimum unchanged (it depends only on
        the ratio ``p_ij / min(P)``) but keeps SGD steps well conditioned —
        raw DeepWalk proximities can be in the tens and would otherwise blow
        up the unclipped non-private trainer.
    """

    def __init__(
        self,
        proximity: ProximityMatrix,
        weight_floor: float = 1e-6,
        normalize_weights: bool = True,
    ) -> None:
        if weight_floor < 0:
            raise TrainingError(f"weight_floor must be non-negative, got {weight_floor}")
        self.proximity = proximity
        self.weight_floor = float(weight_floor)
        self.normalize_weights = bool(normalize_weights)
        # max_value is tracked by the ProximityMatrix on both backends —
        # reading .matrix here would densify a CSR-backed proximity.
        peak = proximity.max_value
        self._weight_scale = 1.0 / peak if (self.normalize_weights and peak > 0) else 1.0

    def edge_weights(self, centers: np.ndarray, positives: np.ndarray) -> np.ndarray:
        """The (optionally rescaled) ``p_ij`` of each observed edge ``(centers, positives)``."""
        values = self.proximity.pair_values(centers, positives) * self._weight_scale
        return np.maximum(values, self.weight_floor)

    # ---------------------------------------------------------------- #
    # Vectorized batch path (the engine's hot path)
    # ---------------------------------------------------------------- #
    @zero_alloc
    def batch_gradients(
        self, w_in: np.ndarray, w_out: np.ndarray, batch: SubgraphBatch, *, workspace
    ) -> BatchGradients:
        """Eq. (7) / Eq. (8) gradients of a whole batch in one vectorized pass.

        One contraction computes all ``B × (1+k)`` scores instead of ``B``
        Python-level matvecs; the result equals the per-example Eq. (7) /
        Eq. (8) up to floating-point evaluation order.  Eq. (8) is returned
        as its rank-1 factors (``context_errors``, ``center_vectors``).  The
        per-example losses fall out of the same scores and ride along on the
        returned :class:`BatchGradients`, so callers never pay a second loss
        pass.

        The whole pass runs through the preallocated buffers of
        ``workspace`` (a :class:`~repro.engine.StepWorkspace`) — gathers
        with ``np.take(out=)``, contractions with ``einsum(out=)``, losses
        and errors through in-place ufunc chains — and the returned
        :class:`BatchGradients` is the workspace's reused view.  The batch
        must carry pre-bound proximity weights.
        """
        ws = workspace
        if not isinstance(batch, SubgraphBatch) or batch.weights is None:
            raise TrainingError(
                "batch_gradients needs a SubgraphBatch with pre-bound "
                "proximity weights (bind them once on the pool)"
            )
        ws.validate_batch(batch)
        weights = batch.weights
        if batch is not ws.batch:
            # the returned BatchGradients views ws.centers / ws.contexts, so
            # a foreign batch must be mirrored into the workspace buffers
            np.copyto(ws.centers, batch.centers)
            np.copyto(ws.contexts, batch.contexts)

        np.take(w_in, ws.centers, axis=0, out=ws.center_vecs, mode="clip")
        np.take(w_out, ws.contexts_flat, axis=0, out=ws.context_vecs_flat, mode="clip")
        np.einsum("bkr,br->bk", ws.context_vecs, ws.center_vecs, out=ws.scores)
        np.clip(ws.scores, -_SCORE_CLAMP, _SCORE_CLAMP, out=ws.scores)

        # losses: -w * Σ_k log σ(t_k) with t_0 = s_0 and t_n = -s_n, using
        # log σ(t) = min(t, 0) - log1p(exp(-|t|))   (|t| = |s| either way)
        softplus = ws.loss_scratch_a
        signed = ws.loss_scratch_b
        np.abs(ws.scores, out=softplus)
        np.negative(softplus, out=softplus)
        np.exp(softplus, out=softplus)
        np.log1p(softplus, out=softplus)
        np.negative(ws.scores, out=signed)
        signed[:, 0] = ws.scores[:, 0]
        np.minimum(signed, 0.0, out=signed)
        np.subtract(signed, softplus, out=signed)
        np.sum(signed, axis=1, out=ws.losses)
        np.multiply(ws.losses, weights, out=ws.losses)
        np.negative(ws.losses, out=ws.losses)

        # errors = w * (σ(s) - indicator), computed in place
        errors = ws.errors
        np.negative(ws.scores, out=errors)
        np.exp(errors, out=errors)
        np.add(errors, 1.0, out=errors)
        np.reciprocal(errors, out=errors)
        errors[:, 0] -= 1.0
        weights_col = ws.weights_col if weights is ws.weights else weights[:, None]
        np.multiply(errors, weights_col, out=errors)

        # the W_out gradient stays factored: errors ⊗ center_vecs (Eq. 8)
        np.einsum("bk,bkr->br", errors, ws.context_vecs, out=ws.center_gradients)
        return ws.gradients

    def __repr__(self) -> str:
        return (
            f"StructurePreferenceObjective(proximity={self.proximity.name!r}, "
            f"weight_floor={self.weight_floor})"
        )

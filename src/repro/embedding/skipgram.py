"""The skip-gram model: two embedding matrices and the operations on them.

Figure 1 of the paper: the model holds an input (centre) matrix ``W_in`` of
shape ``|V| × r`` and an output (context) matrix ``W_out`` of the same
shape.  For a node pair ``(v_i, v_j)`` the score is the inner product of
``W_in[i]`` and ``W_out[j]``; the published embedding is ``W_in``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..utils.rng import ensure_rng

__all__ = ["SkipGramModel"]


class SkipGramModel:
    """Holds and updates the two skip-gram embedding matrices.

    Parameters
    ----------
    num_nodes:
        Number of nodes ``|V|``.
    embedding_dim:
        Embedding dimension ``r``.
    init_scale:
        Uniform initialisation half-width; weights start in
        ``[-init_scale, init_scale]`` (word2vec-style ``0.5 / r`` by default
        when ``None``).
    seed:
        Seed or generator for the initialisation.
    dtype:
        Storage/compute dtype of both matrices (``"float32"`` or
        ``"float64"``, default float64).  Initial weights are always drawn
        in float64 — the RNG stream is identical for both dtypes, float32
        models simply round the same draws — so a float32 model is the
        rounded image of its float64 twin.
    """

    def __init__(
        self,
        num_nodes: int,
        embedding_dim: int,
        init_scale: float | None = None,
        seed: int | np.random.Generator | None = None,
        dtype=np.float64,
    ) -> None:
        if num_nodes <= 0:
            raise ConfigurationError(f"num_nodes must be positive, got {num_nodes}")
        if embedding_dim <= 0:
            raise ConfigurationError(f"embedding_dim must be positive, got {embedding_dim}")
        from ..engine.workspace import resolve_compute_dtype

        self.num_nodes = int(num_nodes)
        self.embedding_dim = int(embedding_dim)
        self.dtype = resolve_compute_dtype(dtype)
        rng = ensure_rng(seed)
        scale = float(init_scale) if init_scale is not None else 0.5 / self.embedding_dim
        if scale <= 0:
            raise ConfigurationError(f"init_scale must be positive, got {init_scale}")
        shape = (self.num_nodes, self.embedding_dim)
        # astype(copy=False) keeps the float64 default allocation-identical
        self.w_in = rng.uniform(-scale, scale, size=shape).astype(self.dtype, copy=False)
        self.w_out = rng.uniform(-scale, scale, size=shape).astype(self.dtype, copy=False)

    # ------------------------------------------------------------------ #
    def release(self) -> None:
        """Nothing to release: a plain model's matrices are private memory."""

    def embeddings(self) -> np.ndarray:
        """Return a copy of the published embedding matrix ``W_in``."""
        return self.w_in.copy()

    def copy(self) -> "SkipGramModel":
        """Return a deep copy of the model (used to snapshot non-private baselines)."""
        clone = SkipGramModel(
            self.num_nodes, self.embedding_dim, init_scale=1e-6, seed=0, dtype=self.dtype
        )
        clone.w_in = self.w_in.copy()
        clone.w_out = self.w_out.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"SkipGramModel(num_nodes={self.num_nodes}, "
            f"embedding_dim={self.embedding_dim})"
        )

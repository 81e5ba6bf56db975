"""Subgraph and negative sampling.

Implements Algorithm 1 of the paper (*Generating Disjoint Subgraphs*): every
edge ``(v_i, v_j)`` is grouped with ``k`` negative nodes ``v_n`` such that
``(v_i, v_n)`` is not an edge.  A batch of these subgraphs — sampled
uniformly without replacement — is the unit of one private SGD step, and
``γ = B / |E|`` is the subsampling rate used for privacy amplification.

Two negative-node distributions are provided:

* :class:`UnigramNegativeSampler` — the classic degree^0.75 unigram sampler
  used by word2vec/DeepWalk (the "prior work" setting in Section IV-B).
* :class:`ProximityNegativeSampler` — the paper's Theorem-3 design where
  ``P_n(v) ∝ min(P) / Σ_j p_ij``, which makes skip-gram preserve arbitrary
  proximities.
"""

from __future__ import annotations

import numpy as np

from ..engine.batch import SubgraphBatch
from ..exceptions import GraphError
from ..utils.rng import ensure_rng
from .graph import Graph

__all__ = [
    "generate_disjoint_subgraph_arrays",
    "SubgraphSampler",
    "UnigramNegativeSampler",
    "ProximityNegativeSampler",
]


class _NegativeSamplerBase:
    """Common machinery: draw nodes from a distribution, rejecting neighbours.

    Draws are vectorised: candidates come from a Walker alias table — two
    O(1) lookups per draw, the standard trick of node2vec-family
    implementations — and neighbour rejection runs through the graph's
    bulk CSR edge test, one round for all pending draws at a time.
    """

    def __init__(
        self,
        graph: Graph,
        probabilities: np.ndarray,
        seed: int | np.random.Generator | None = None,
        max_attempts: int = 1000,
    ) -> None:
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape != (graph.num_nodes,):
            raise GraphError(
                f"probabilities must have shape ({graph.num_nodes},), got {probabilities.shape}"
            )
        if np.any(probabilities < 0):
            raise GraphError("negative sampling probabilities must be non-negative")
        total = probabilities.sum()
        if total <= 0:
            raise GraphError("negative sampling probabilities must not all be zero")
        self.graph = graph
        self.probabilities = probabilities / total
        self._rng = ensure_rng(seed)
        self._max_attempts = int(max_attempts)
        self._build_alias_table()

    # ------------------------------------------------------------------ #
    def _build_alias_table(self) -> None:
        """Walker's O(n) alias-table construction over ``self.probabilities``.

        ``accept[i]`` is the probability that a uniform draw landing in
        column ``i`` keeps ``i``; otherwise it yields ``alias[i]``.
        """
        n = self.probabilities.size
        scaled = self.probabilities * n
        accept = np.ones(n, dtype=np.float64)
        alias = np.arange(n, dtype=np.int64)
        # Python lists as work stacks: construction is one-time per sampler
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            lo = small.pop()
            hi = large.pop()
            accept[lo] = scaled[lo]
            alias[lo] = hi
            scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
            if scaled[hi] < 1.0:
                small.append(hi)
            else:
                large.append(hi)
        # leftovers are 1.0 up to round-off: they always accept
        for rest in small + large:
            accept[rest] = 1.0
            alias[rest] = rest
        self._alias_accept = accept
        self._alias_index = alias

    def _draw_candidates(self, count: int) -> np.ndarray:
        """Draw ``count`` node candidates from the sampling distribution."""
        n = self.graph.num_nodes
        u = self._rng.random(count)
        u *= n
        columns = u.astype(np.int64)
        np.minimum(columns, n - 1, out=columns)  # guard u*n rounding up to n
        u -= columns  # leftover fraction decides accept vs alias
        return np.where(
            u < self._alias_accept[columns], columns, self._alias_index[columns]
        )

    def sample_negatives_bulk(self, centers: np.ndarray, count: int) -> np.ndarray:
        """Sample ``count`` negatives for every centre in one vectorised pass.

        Returns an ``[len(centers), count]`` array where no entry is a
        neighbour of (or equal to) its row's centre.  All pending draws
        across all rows share each rejection round, so the cost is a few
        alias-table passes regardless of the number of centres.
        """
        if count < 0:
            raise GraphError(f"count must be non-negative, got {count}")
        centers = np.asarray(centers, dtype=np.int64)
        total = centers.shape[0] * count
        result = np.full(total, -1, dtype=np.int64)
        if total == 0:
            return result.reshape(centers.shape[0], count)
        flat_centers = np.repeat(centers, count)
        pending = np.arange(total)
        rounds = 0
        while pending.size and rounds < self._max_attempts:
            rounds += 1
            draws = self._draw_candidates(pending.size)
            row_centers = flat_centers[pending]
            valid = ~self.graph.has_edges_bulk(row_centers, draws)
            valid &= draws != row_centers
            result[pending[valid]] = draws[valid]
            pending = pending[~valid]
        if pending.size:
            # Rejection failed (near-complete neighbourhoods): build the
            # allowed complement once per distinct centre via a boolean mask
            # and draw uniformly from it.
            by_center: dict[int, list[int]] = {}
            for index in pending:
                by_center.setdefault(int(flat_centers[index]), []).append(index)
            allowed_mask = np.empty(self.graph.num_nodes, dtype=bool)
            for center, indices in by_center.items():
                allowed_mask.fill(True)
                allowed_mask[self.graph.neighbors(center)] = False
                allowed_mask[center] = False
                allowed = np.flatnonzero(allowed_mask)
                if allowed.size == 0:
                    raise GraphError(
                        f"node {center} is connected to every other node; "
                        "cannot sample negatives"
                    )
                result[indices] = self._rng.choice(allowed, size=len(indices), replace=True)
        return result.reshape(centers.shape[0], count)


class UnigramNegativeSampler(_NegativeSamplerBase):
    """word2vec-style unigram sampler: ``P_n(v) ∝ degree(v) ** power``.

    With ``power=0.75`` this reproduces the negative sampling used by
    DeepWalk/LINE/node2vec — the comparison point of Section IV-B's
    "Comparison with Prior Works".
    """

    def __init__(
        self,
        graph: Graph,
        power: float = 0.75,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        degrees = graph.degrees().astype(float)
        # Isolated nodes get a tiny positive mass so the distribution is valid.
        weights = np.power(np.maximum(degrees, 1e-12), power)
        super().__init__(graph, weights, seed=seed)
        self.power = float(power)


class ProximityNegativeSampler(_NegativeSamplerBase):
    """Theorem-3 negative sampler: ``P_n(v_i → ·) ∝ min(P) / Σ_j p_ij``.

    The paper defines the negative-sampling probability *per centre node*
    ``v_i`` as ``min(P) / Σ_{v_j} p_ij`` — i.e. the probability of drawing
    any particular negative is inversely proportional to the centre's total
    proximity mass.  Normalised over candidate nodes this yields a uniform
    distribution whose *scale* (relative to the positive term) is what drives
    the optimum in Eq. (10); for sampling purposes we draw candidates
    uniformly and keep ``row_sums`` and ``min_positive_proximity``, whose
    ratio is that per-centre mass.
    """

    def __init__(
        self,
        graph: Graph,
        proximity_row_sums: np.ndarray,
        min_positive_proximity: float,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        proximity_row_sums = np.asarray(proximity_row_sums, dtype=float)
        if proximity_row_sums.shape != (graph.num_nodes,):
            raise GraphError(
                "proximity_row_sums must have one entry per node, got shape "
                f"{proximity_row_sums.shape}"
            )
        if min_positive_proximity <= 0:
            raise GraphError(
                f"min_positive_proximity must be positive, got {min_positive_proximity}"
            )
        # Candidate negatives are drawn uniformly; the proximity information
        # enters through the per-centre weight used in the objective.
        uniform = np.ones(graph.num_nodes, dtype=float)
        super().__init__(graph, uniform, seed=seed)
        self.row_sums = proximity_row_sums
        self.min_positive_proximity = float(min_positive_proximity)

    @classmethod
    def from_proximity(
        cls,
        graph: Graph,
        proximity,
        seed: int | np.random.Generator | None = None,
    ) -> "ProximityNegativeSampler":
        """Build the Theorem-3 sampler straight from a ``ProximityMatrix``.

        Reads ``row_sums`` / ``min_positive`` off the matrix wrapper, which
        tracks them on both the CSR and the dense backend — no densified
        matrix is ever touched.
        """
        return cls(
            graph,
            proximity_row_sums=proximity.row_sums,
            min_positive_proximity=max(proximity.min_positive, 1e-12),
            seed=seed,
        )


def generate_disjoint_subgraph_arrays(
    graph: Graph,
    negative_sampler: _NegativeSamplerBase,
    num_negatives: int,
) -> SubgraphBatch:
    """Algorithm 1 in array form: the whole subgraph set ``GS`` as one batch.

    One example per edge ``(v_i, v_j)``: centres ``[|GS|]`` are the ``v_i``
    and contexts ``[|GS|, 1+k]`` hold the positive ``v_j`` first, then the
    ``k`` negatives drawn by ``negative_sampler.sample_negatives_bulk``.

    Parameters
    ----------
    graph:
        The training graph.
    negative_sampler:
        A negative sampler (:class:`UnigramNegativeSampler` or
        :class:`ProximityNegativeSampler`).
    num_negatives:
        ``k``, the number of negative samples per edge.
    """
    if num_negatives < 1:
        raise GraphError(f"num_negatives must be >= 1, got {num_negatives}")
    if graph.num_edges == 0:
        raise GraphError("cannot build subgraphs for a graph with no edges")
    centers = graph.edges[:, 0].astype(np.int64)
    contexts = np.empty((graph.num_edges, 1 + num_negatives), dtype=np.int64)
    contexts[:, 0] = graph.edges[:, 1]
    contexts[:, 1:] = negative_sampler.sample_negatives_bulk(centers, num_negatives)
    return SubgraphBatch(centers=centers, contexts=contexts)


class SubgraphSampler:
    """Uniform without-replacement batch sampler over precomputed subgraphs.

    One batch of size ``B`` corresponds to one private SGD step; the
    subsampling rate ``γ = B / |GS|`` feeds the privacy-amplification bound
    (Theorem 4 / 5 of the paper).

    The pool is stored as a :class:`~repro.engine.batch.SubgraphBatch`.
    Indices come from one ``rng.choice(replace=False)`` per step, so the
    generator's ``bit_generator.state`` is the sampler's whole state.
    :meth:`sample_batch_arrays` gathers a batch into the engine's
    workspace.
    """

    def __init__(
        self,
        pool: SubgraphBatch,
        batch_size: int,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if batch_size < 1:
            raise GraphError(f"batch_size must be >= 1, got {batch_size}")
        self.pool = pool
        self.batch_size = min(int(batch_size), len(pool))
        self._rng = ensure_rng(seed)
        self._cast_pools: dict[np.dtype, SubgraphBatch] = {}

    @property
    def sampling_rate(self) -> float:
        """The subsampling parameter ``γ = B / |GS|``."""
        return self.batch_size / len(self.pool)

    def sample_indices(self) -> np.ndarray:
        """Draw ``batch_size`` pool indices uniformly without replacement."""
        return self._rng.choice(len(self.pool), size=self.batch_size, replace=False)

    def _pool_for_dtype(self, dtype: np.dtype) -> SubgraphBatch:
        """The pool with weights cast to ``dtype`` (cached; cast once)."""
        weights = self.pool.weights
        if weights is None or weights.dtype == dtype:
            return self.pool
        cast = self._cast_pools.get(dtype)
        if cast is None:
            cast = self.pool.with_weights(weights.astype(dtype))
            self._cast_pools[dtype] = cast
        return cast

    def sample_batch_arrays(self, workspace) -> SubgraphBatch:
        """Sample one batch into ``workspace.batch`` — the engine's hot path.

        The rows are gathered straight into the workspace's preallocated
        buffers; pool weights are cast to the workspace compute dtype once
        and cached.
        """
        pool = self._pool_for_dtype(workspace.dtype)
        return pool.take(self.sample_indices(), out=workspace.batch)

    def __len__(self) -> int:
        return len(self.pool)

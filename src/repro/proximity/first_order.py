"""First-order proximity measures (one-hop neighbourhood heuristics).

The paper's Definition 4 cites common neighbours and preferential attachment
as first-order structural features; Jaccard similarity is included as a
normalised variant commonly used alongside them.

Common neighbours and Jaccard have genuinely sparse support (the pattern of
``A @ A``) and provide CSR paths; preferential attachment is a dense outer
product by nature and keeps the dense backend.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from ..graph import Graph
from .base import ProximityMeasure, _row_block

__all__ = [
    "CommonNeighborsProximity",
    "PreferentialAttachmentProximity",
    "JaccardProximity",
]


class CommonNeighborsProximity(ProximityMeasure):
    """``p_ij = |N(v_i) ∩ N(v_j)|`` — the number of shared neighbours."""

    name = "common_neighbors"
    supports_sparse = True

    def compute_matrix(self, graph: Graph) -> np.ndarray:
        adjacency = self._dense_adjacency(graph)
        return adjacency @ adjacency

    def compute_sparse_matrix(
        self, graph: Graph, rows: np.ndarray | None = None
    ) -> _sp.csr_matrix:
        adjacency = self._sparse_adjacency(graph)
        return (_row_block(adjacency, rows) @ adjacency).tocsr()

    def locality_radius(self) -> int:
        # row i reads only the neighbour lists of i's neighbours
        return 1


class PreferentialAttachmentProximity(ProximityMeasure):
    """``p_ij = d_i · d_j`` — the Barabási–Albert preferential attachment score.

    Non-zero for every pair of non-isolated nodes, so there is no sparse
    structure to exploit: the measure keeps the dense backend.
    """

    name = "preferential_attachment"

    def compute_matrix(self, graph: Graph) -> np.ndarray:
        degrees = graph.degrees().astype(float)
        return np.outer(degrees, degrees)


class JaccardProximity(ProximityMeasure):
    """``p_ij = |N(i) ∩ N(j)| / |N(i) ∪ N(j)|`` — normalised neighbourhood overlap."""

    name = "jaccard"
    supports_sparse = True

    def compute_matrix(self, graph: Graph) -> np.ndarray:
        adjacency = self._dense_adjacency(graph)
        intersection = adjacency @ adjacency
        degrees = adjacency.sum(axis=1)
        union = degrees[:, None] + degrees[None, :] - intersection
        with np.errstate(divide="ignore", invalid="ignore"):
            jaccard = np.where(union > 0, intersection / union, 0.0)
        return jaccard

    def compute_sparse_matrix(
        self, graph: Graph, rows: np.ndarray | None = None
    ) -> _sp.csr_matrix:
        # The Jaccard score is non-zero exactly where the intersection count
        # is, so only the stored entries of A @ A ever need a union size.
        adjacency = self._sparse_adjacency(graph)
        intersection = (_row_block(adjacency, rows) @ adjacency).tocoo()
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        centers = intersection.row if rows is None else rows[intersection.row]
        union = degrees[centers] + degrees[intersection.col] - intersection.data
        with np.errstate(divide="ignore", invalid="ignore"):
            data = np.where(union > 0, intersection.data / union, 0.0)
        return _sp.csr_matrix(
            (data, (intersection.row, intersection.col)), shape=intersection.shape
        )

    def locality_radius(self) -> int:
        # an endpoint's degree sits in the union denominator of every row
        # that shares a neighbour with it, two hops out
        return 2

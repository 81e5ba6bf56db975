"""Second-order proximity measures (two-hop neighbourhood heuristics).

Adamic–Adar and resource allocation both down-weight common neighbours by
(a function of) their degree; the paper lists them as the canonical
second-order structural features.  Both are weighted two-hop counts
``A diag(w) A`` and therefore share the sparse pattern of ``A @ A``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from ..graph import Graph
from .base import ProximityMeasure, _row_block

__all__ = ["AdamicAdarProximity", "ResourceAllocationProximity"]


class _DegreeWeightedTwoHop(ProximityMeasure):
    """Shared machinery for ``p_ij = Σ_{w ∈ N(i) ∩ N(j)} weight(d_w)``."""

    supports_sparse = True

    def _weights(self, degrees: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def compute_matrix(self, graph: Graph) -> np.ndarray:
        adjacency = self._dense_adjacency(graph)
        weights = self._weights(adjacency.sum(axis=1))
        return (adjacency * weights[None, :]) @ adjacency

    def compute_sparse_matrix(
        self, graph: Graph, rows: np.ndarray | None = None
    ) -> _sp.csr_matrix:
        adjacency = self._sparse_adjacency(graph)
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        weights = self._weights(degrees)
        return (_row_block(adjacency, rows) @ _sp.diags(weights) @ adjacency).tocsr()

    def locality_radius(self) -> int:
        # an endpoint's degree enters only through the weight of a common
        # neighbour, which is adjacent to the row's node
        return 1


class AdamicAdarProximity(_DegreeWeightedTwoHop):
    """``p_ij = Σ_{w ∈ N(i) ∩ N(j)} 1 / log d_w``.

    Common neighbours with degree 1 contribute nothing (their ``log`` weight
    would be infinite); they are excluded, matching the standard convention.
    """

    name = "adamic_adar"

    def _weights(self, degrees: np.ndarray) -> np.ndarray:
        weights = np.zeros_like(degrees, dtype=float)
        mask = degrees > 1
        weights[mask] = 1.0 / np.log(degrees[mask])
        return weights


class ResourceAllocationProximity(_DegreeWeightedTwoHop):
    """``p_ij = Σ_{w ∈ N(i) ∩ N(j)} 1 / d_w`` (Zhou, Lü & Zhang 2009)."""

    name = "resource_allocation"

    def _weights(self, degrees: np.ndarray) -> np.ndarray:
        weights = np.zeros_like(degrees, dtype=float)
        mask = degrees > 0
        weights[mask] = 1.0 / degrees[mask]
        return weights

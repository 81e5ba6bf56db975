"""Node-degree proximity (the SE-PrivGEmb\\ :sub:`Deg` variant).

The paper's second experimental variant uses "node degree proximity": the
structural preference of a pair is driven by the degrees of its endpoints.
We use the normalised geometric combination ``p_ij = sqrt(d_i · d_j) /
max(d)`` for connected pairs, which ranks pairs exactly as preferential
attachment does but keeps values bounded in ``(0, 1]``, and 0 for
unconnected pairs (degree proximity is a first-order feature computed on
observed edges).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as _sp

from ..graph import Graph
from .base import ProximityMeasure, _row_block

__all__ = ["DegreeProximity"]


def _peak(degrees: np.ndarray) -> float:
    return float(degrees.max()) if degrees.size else 0.0


class DegreeProximity(ProximityMeasure):
    """Degree-based structure preference for observed edges.

    Parameters
    ----------
    connected_only:
        If ``True`` (default, matching the paper's training objective where
        only observed edges carry a preference weight) the proximity is
        non-zero only for adjacent pairs — exactly the adjacency pattern, so
        the measure is sparse-first.  If ``False`` every pair gets a degree
        product score, which is useful for analysis but dense by nature.
    """

    name = "degree"

    def __init__(self, connected_only: bool = True) -> None:
        self.connected_only = bool(connected_only)
        # Sparse support is exactly the adjacency pattern — but only when
        # restricted to observed edges.
        self.supports_sparse = self.connected_only

    def compute_matrix(self, graph: Graph) -> np.ndarray:
        degrees = graph.degrees().astype(float)
        peak = _peak(degrees)
        if peak <= 0:
            return np.zeros((graph.num_nodes, graph.num_nodes))
        scores = np.sqrt(np.outer(degrees, degrees)) / peak
        if self.connected_only:
            adjacency = self._dense_adjacency(graph)
            scores = scores * adjacency
        return scores

    def compute_sparse_matrix(
        self, graph: Graph, rows: np.ndarray | None = None
    ) -> _sp.csr_matrix:
        if not self.connected_only:
            return super().compute_sparse_matrix(graph, rows)
        degrees = graph.degrees().astype(float)
        peak = _peak(degrees)
        n = graph.num_nodes
        shape = (n if rows is None else rows.shape[0], n)
        if peak <= 0:
            return _sp.csr_matrix(shape)
        adjacency = _row_block(self._sparse_adjacency(graph), rows).tocoo()
        centers = adjacency.row if rows is None else rows[adjacency.row]
        data = np.sqrt(degrees[centers] * degrees[adjacency.col]) / peak
        return _sp.csr_matrix((data, (adjacency.row, adjacency.col)), shape=shape)

    def locality_radius(self) -> int | None:
        # an edge flip changes the endpoints' rows and, through their
        # degrees, their neighbours' rows; the all-pairs variant is global
        return 1 if self.connected_only else None

    def reused_row_scale(self, old: Graph, new: Graph) -> float:
        # every entry divides by the peak degree
        peak_old, peak_new = _peak(old.degrees()), _peak(new.degrees())
        if peak_old <= 0 or peak_new <= 0:
            return float("nan")  # empty graph on either side: recompute
        return peak_old / peak_new

    def __repr__(self) -> str:
        return f"DegreeProximity(connected_only={self.connected_only})"

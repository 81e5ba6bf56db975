"""Structural-equivalence evaluation (the StrucEqu metric of Section VI-A).

Two nodes are structurally equivalent when they share the same neighbours.
The paper quantifies how well an embedding recovers this notion by the
Pearson correlation, over node pairs, of

* ``dist(A_i, A_j)`` — Euclidean distance between the adjacency-matrix rows
  of the two nodes, and
* ``dist(Y_i, Y_j)`` — Euclidean distance between their embedding vectors:

``StrucEqu = pearson(dist(A_i, A_j), dist(Y_i, Y_j))``.

For large graphs evaluating every pair is quadratic; ``max_pairs`` caps the
number of (uniformly sampled) pairs, which leaves the estimate unbiased.
Sampled pairs read their adjacency distances off the sparse adjacency, so
the dense ``n × n`` matrix is only built when every pair is scored.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EvaluationError
from ..graph import Graph
from ..utils.math import pairwise_euclidean
from ..utils.rng import ensure_rng
from .metrics import pearson_correlation

__all__ = ["structural_equivalence_score"]


def structural_equivalence_score(
    graph: Graph,
    embeddings: np.ndarray,
    max_pairs: int | None = 200_000,
    seed: int | np.random.Generator | None = 0,
) -> float:
    """Compute StrucEqu = Pearson(dist(A_i, A_j), dist(Y_i, Y_j)).

    Parameters
    ----------
    graph:
        The graph whose adjacency rows define ground-truth structural
        distance.
    embeddings:
        ``|V| × r`` embedding matrix.
    max_pairs:
        If the number of node pairs exceeds this cap, a uniform sample of
        pairs is used instead of all of them.  ``None`` disables sampling.
    seed:
        Seed for the pair sampling (only used when sampling kicks in).
    """
    embeddings = np.asarray(embeddings, dtype=float)
    if embeddings.ndim != 2 or embeddings.shape[0] != graph.num_nodes:
        raise EvaluationError(
            f"embeddings must have shape ({graph.num_nodes}, r), got {embeddings.shape}"
        )
    n = graph.num_nodes
    if n < 3:
        raise EvaluationError("structural equivalence needs at least 3 nodes")

    total_pairs = n * (n - 1) // 2
    if max_pairs is not None and total_pairs > max_pairs:
        rng = ensure_rng(seed)
        i = rng.integers(0, n, size=max_pairs)
        j = rng.integers(0, n, size=max_pairs)
        keep = i != j
        i, j = i[keep], j[keep]
        adjacency_dist = _adjacency_distances(graph, i, j)
        embedding_dist = np.linalg.norm(embeddings[i] - embeddings[j], axis=1)
    else:
        adjacency = np.asarray(graph.adjacency_matrix(dense=True), dtype=float)
        iu, ju = np.triu_indices(n, k=1)
        adjacency_dist = pairwise_euclidean(adjacency)[iu, ju]
        embedding_dist = pairwise_euclidean(embeddings)[iu, ju]

    # Structural equivalence is recovered when *small* adjacency distance
    # corresponds to *small* embedding distance, i.e. a positive correlation
    # between the two distance vectors.
    return pearson_correlation(adjacency_dist, embedding_dist)


def _adjacency_distances(graph: Graph, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``||A_i - A_j||`` per pair, from the sparse adjacency.

    Rows of an unweighted adjacency are 0/1, so the squared distance is the
    integer ``d_i + d_j - 2|N(i) ∩ N(j)|``: exact in float64, and its square
    root is bit-identical to the norm of the dense row difference.
    """
    adjacency = graph.adjacency_matrix()
    common = np.asarray(adjacency[i].multiply(adjacency[j]).sum(axis=1)).ravel()
    degrees = graph.degrees()
    return np.sqrt(degrees[i] + degrees[j] - 2.0 * common)

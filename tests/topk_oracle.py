"""Reference ranking for :class:`~repro.serving.QueryEngine.top_k`.

One query at a time in float64, the way the ranking contract reads:
descending score, NaN after every other score, ties by ascending node id,
and under ``exclude_self`` the query is never a candidate.  Scores are
elementwise sums, not a BLAS call, so ``inf * 0`` is NaN whatever kernel
the machine has.
"""

from __future__ import annotations

import numpy as np


def brute_force_topk(embeddings, nodes, k, *, metric="cosine", exclude_self=True):
    """``(ids, scores)`` of the ``k`` best candidates for each query node."""
    E = np.asarray(embeddings, dtype=np.float64)
    n = E.shape[0]
    norms = np.maximum(np.sqrt((E * E).sum(axis=1)), 1e-12)
    ids_out, scores_out = [], []
    for node in np.asarray(nodes, dtype=np.int64):
        scores = (E * E[node]).sum(axis=1)
        if metric == "cosine":
            scores = scores / norms / norms[node]
        order = np.lexsort((np.arange(n), -scores))  # NaN sorts last
        if exclude_self:
            order = order[order != node]
        order = order[:k]
        ids_out.append(order)
        scores_out.append(scores[order])
    return np.array(ids_out), np.array(scores_out)

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


def full_block_topk(embeddings, nodes, k, *, metric="cosine", exclude_self=True,
                    max_batch=64, block_rows=8192):
    """``(ids, scores)`` the float32 engine must return, bit for bit.

    Scores each ``max_batch × block_rows`` block the way the engine did
    before strip gating: one float32 matmul, then ÷ row norm, then ÷ query
    norm over the whole block.  Each row is then lexsorted whole on the
    float32 bit pattern made monotone, so +0.0 ranks above −0.0 as the
    engine's packed keys rank it; NaN follows every other score by
    ascending id.
    """
    C = np.asarray(embeddings, dtype=np.float32)
    n = C.shape[0]
    norms = np.einsum("ij,ij->i", C, C)
    np.sqrt(norms, out=norms)
    np.maximum(norms, np.float32(1e-12), out=norms)
    nodes = np.asarray(nodes, dtype=np.int64)
    ids_out, scores_out = [], []
    for first in range(0, nodes.size, max_batch):
        batch = nodes[first:first + max_batch]
        queries = C[batch]
        row_scores = np.empty((batch.size, n), dtype=np.float32)
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            block = np.matmul(queries, C[start:stop].T)
            if metric == "cosine":
                block = block / norms[start:stop]
                block = block / norms[batch][:, None]
            row_scores[:, start:stop] = block
        for node, scores in zip(batch, row_scores):
            bits = scores.view(np.uint32)
            ordered = np.where(bits >> 31 == 1, ~bits, bits | np.uint32(0x80000000))
            nan = np.isnan(scores)
            order = np.lexsort((np.arange(n), np.where(nan, 0, ~ordered), nan))
            if exclude_self:
                order = order[order != node]
            order = order[:k]
            ids_out.append(order)
            scores_out.append(scores[order])
    return np.array(ids_out), np.array(scores_out)

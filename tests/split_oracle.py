"""Per-pair reference for the link-prediction split.

:meth:`Graph.non_edges_sample`, :meth:`Graph.subgraph_without_edges` and
:func:`make_link_prediction_split` work on packed ``lo * n + hi`` key
arrays.  The functions here are the same algorithms written one pair at a
time, over Python sets and tuple lists, reading the same RNG draws: the
oracle the array versions are checked against bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro import Graph


def non_edges_sample(graph: Graph, count, rng, exclude=None, max_attempts_factor=200):
    """:meth:`Graph.non_edges_sample`, one drawn pair at a time."""
    n = graph.num_nodes
    exclude_set: set[tuple[int, int]] = set()
    if exclude is not None:
        exclude_set = {
            key
            for u, v in exclude
            for key in ((min(int(u), int(v)), max(int(u), int(v))),)
            if 0 <= key[0] < key[1] < n
        }
    total_pairs = n * (n - 1) // 2
    excluded_non_edges = sum(1 for key in exclude_set if not graph.has_edge(*key))
    available = total_pairs - graph.num_edges - excluded_non_edges
    if available < count:
        raise ValueError(f"only {available} eligible non-edges, {count} requested")
    if count == 0:
        return np.empty((0, 2), dtype=np.int64)
    if graph.density >= 0.5 or available <= 4 * count:
        return _non_edges_exact(graph, count, rng, exclude_set)
    found: list[tuple[int, int]] = []
    found_keys: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = max(1, count) * max(1, max_attempts_factor)
    while len(found) < count and attempts < max_attempts:
        batch = min(max_attempts - attempts, max(256, 2 * (count - len(found))))
        u = rng.integers(0, n, size=batch)
        v = rng.integers(0, n, size=batch)
        attempts += batch
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        keep = (lo != hi) & ~graph.has_edges_bulk(lo, hi)
        for a, b in zip(lo[keep].tolist(), hi[keep].tolist(), strict=True):
            key = (a, b)
            if key in exclude_set or key in found_keys:
                continue
            found_keys.add(key)
            found.append(key)
            if len(found) == count:
                break
    if len(found) < count:
        return _non_edges_exact(graph, count, rng, exclude_set)
    return np.array(found, dtype=np.int64).reshape(-1, 2)


def _non_edges_exact(graph: Graph, count, rng, exclude_set):
    n = graph.num_nodes
    iu, ju = np.triu_indices(n, k=1)
    keep = np.asarray(graph.adjacency_matrix()[iu, ju]).ravel() == 0
    if exclude_set:
        excluded = np.fromiter(
            (a * n + b for a, b in exclude_set), dtype=np.int64, count=len(exclude_set)
        )
        keep &= ~np.isin(iu * np.int64(n) + ju, excluded)
    candidates = np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)
    order = rng.permutation(candidates.shape[0])[:count]
    return candidates[order]


def subgraph_without_edges(graph: Graph, removed) -> Graph:
    """:meth:`Graph.subgraph_without_edges` over a set of canonical tuples."""
    n_nodes = graph.num_nodes
    removed_set = {
        key
        for u, v in removed
        for key in ((min(int(u), int(v)), max(int(u), int(v))),)
        if 0 <= key[0] and key[1] < n_nodes
    }
    edges = graph.edges
    if not removed_set or not graph.num_edges:
        kept = edges
    else:
        removed_arr = np.array(sorted(removed_set), dtype=np.int64).reshape(-1, 2)
        n = np.int64(n_nodes)
        keys = edges[:, 0] * n + edges[:, 1]
        kept = edges[~np.isin(keys, removed_arr[:, 0] * n + removed_arr[:, 1])]
    return Graph(n_nodes, kept)


def link_prediction_split(graph: Graph, seed, test_fraction=0.1):
    """``(training_graph, train_pos, train_neg, test_pos, test_neg)`` via tuple lists."""
    rng = np.random.default_rng(seed)
    edges = graph.edges.copy()
    order = rng.permutation(len(edges))
    num_test = max(1, int(round(test_fraction * len(edges))))
    test_positive = edges[order[:num_test]]
    train_positive = edges[order[num_test:]]
    training_graph = subgraph_without_edges(
        graph, [(int(u), int(v)) for u, v in test_positive]
    )
    test_negative = non_edges_sample(graph, len(test_positive), rng)
    train_negative = non_edges_sample(
        graph, len(train_positive), rng,
        exclude=[(int(u), int(v)) for u, v in test_negative],
    )
    return training_graph, train_positive, train_negative, test_positive, test_negative

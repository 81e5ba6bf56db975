"""An undirected, unweighted, simple graph held in memory.

The paper's algorithms only ever need three views of a graph:

* the edge list (to enumerate positive skip-gram pairs),
* per-node neighbour sets (for negative sampling and proximities),
* the adjacency matrix (for structural-equivalence evaluation and the
  matrix-based proximities).

:class:`Graph` provides all three with O(1) edge membership tests and a
sparse CSR adjacency.  Nodes are integers ``0 .. n-1``.
"""

from __future__ import annotations

import hashlib
import warnings
from collections.abc import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse

from ..exceptions import GraphError

__all__ = ["Graph", "graph_content_fingerprint"]


def graph_content_fingerprint(num_nodes: int, edges: np.ndarray) -> str:
    """Content hash of a graph given as ``(num_nodes, canonical edge array)``.

    The single definition of the fingerprint format — used by
    :meth:`Graph.content_fingerprint` and by the proximity cache's fallback
    for duck-typed graph objects, so the two can never drift apart.
    """
    digest = hashlib.sha256()
    digest.update(b"repro-graph-v1")
    digest.update(int(num_nodes).to_bytes(8, "little"))
    digest.update(np.ascontiguousarray(np.asarray(edges, dtype=np.int64)).tobytes())
    return digest.hexdigest()[:32]


class Graph:
    """Undirected, unweighted simple graph on nodes ``0 .. num_nodes - 1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Nodes without incident edges are allowed.
    edges:
        Iterable of ``(u, v)`` pairs.  Self-loops are rejected and duplicate
        edges (including ``(v, u)`` mirrors) are collapsed.
    name:
        Optional human-readable name, used in reprs and experiment reports.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int]],
        name: str = "graph",
    ) -> None:
        if num_nodes <= 0:
            raise GraphError(f"num_nodes must be positive, got {num_nodes}")
        self._num_nodes = int(num_nodes)
        self._name = name
        self._edges = self._canonical_edges(edges)
        # Neighbour structure and adjacency are built lazily: a million-node
        # graph that only feeds the array-based training path never pays for
        # per-node arrays it does not use.
        self._nbr_values: np.ndarray | None = None
        self._nbr_offsets: np.ndarray | None = None
        self._adjacency: sparse.csr_matrix | None = None
        self._adjacency_keys: np.ndarray | None = None
        self._content_fingerprint: str | None = None

    def _canonical_edges(self, edges: Iterable[tuple[int, int]]) -> np.ndarray:
        """Validate, canonicalise (``u < v``) and dedupe edges, vectorised.

        Reproduces the original ``sorted(set(...))`` construction exactly —
        rows come out lexicographically sorted with mirrors collapsed — but
        in O(m log m) array ops instead of a Python loop, which is what makes
        million-edge graphs constructible in seconds.
        """
        n = self._num_nodes
        if isinstance(edges, np.ndarray):
            arr = edges.astype(np.int64, copy=False)
        else:
            arr = np.asarray(list(edges) if not isinstance(edges, (list, tuple)) else edges)
            arr = arr.astype(np.int64, copy=False)
        if arr.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(
                f"edges must be (u, v) pairs, got an array of shape {arr.shape}"
            )
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            u, v = arr[int(np.argmax(loops))]
            raise GraphError(
                f"self-loop ({int(u)}, {int(v)}) is not allowed in a simple graph"
            )
        bad = (arr < 0) | (arr >= n)
        if bad.any():
            u, v = arr[int(np.argmax(bad.any(axis=1)))]
            raise GraphError(
                f"edge ({int(u)}, {int(v)}) references a node outside [0, {n})"
            )
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        if n <= np.iinfo(np.int64).max // max(n, 1):
            # pack (lo, hi) into one int64 key: unique() then sorts and
            # dedupes in a single pass (the packing is order-preserving)
            keys = np.unique(lo * np.int64(n) + hi)
            return np.stack([keys // n, keys % n], axis=1).astype(np.int64, copy=False)
        return np.unique(np.stack([lo, hi], axis=1), axis=0)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _from_canonical_edges(
        cls, num_nodes: int, edges: np.ndarray, name: str = "graph"
    ) -> "Graph":
        """Construct a graph from an already-canonical edge array.

        The caller guarantees the :meth:`_canonical_edges` invariant —
        ``(m, 2)`` int64, ``u < v`` per row, lexicographically sorted,
        unique, every index in ``[0, num_nodes)``.  The streaming delta
        path maintains that invariant incrementally (sorted merges over
        packed keys) and uses this constructor to skip the O(m log m)
        re-canonicalisation a plain ``Graph(...)`` would pay.
        """
        if num_nodes <= 0:
            raise GraphError(f"num_nodes must be positive, got {num_nodes}")
        graph = cls.__new__(cls)
        graph._num_nodes = int(num_nodes)
        graph._name = name
        graph._edges = np.ascontiguousarray(edges, dtype=np.int64).reshape(-1, 2)
        graph._nbr_values = None
        graph._nbr_offsets = None
        graph._adjacency = None
        graph._adjacency_keys = None
        graph._content_fingerprint = None
        return graph

    @classmethod
    def from_edge_list(
        cls,
        edges: Sequence[tuple[int, int]],
        num_nodes: int | None = None,
        name: str = "graph",
    ) -> "Graph":
        """Build a graph from an edge list, inferring ``num_nodes`` if omitted."""
        if num_nodes is None:
            if not edges:
                raise GraphError("cannot infer num_nodes from an empty edge list")
            num_nodes = int(max(max(u, v) for u, v in edges)) + 1
        return cls(num_nodes, edges, name=name)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Human-readable name of the graph."""
        return self._name

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return int(self._edges.shape[0])

    @property
    def edges(self) -> np.ndarray:
        """``(|E|, 2)`` array of edges with ``u < v`` in each row."""
        return self._edges

    @property
    def density(self) -> float:
        """Edge density ``2|E| / (|V| (|V|-1))``."""
        n = self._num_nodes
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    def degrees(self) -> np.ndarray:
        """Return the degree of every node as an ``int64`` array."""
        if not self.num_edges:
            return np.zeros(self._num_nodes, dtype=np.int64)
        return np.bincount(self._edges.ravel(), minlength=self._num_nodes).astype(
            np.int64, copy=False
        )

    def degree(self, node: int) -> int:
        """Return the degree of a single node."""
        self._check_node(node)
        self._ensure_neighbors()
        node = int(node)
        return int(self._nbr_offsets[node + 1] - self._nbr_offsets[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Return the sorted neighbour array of ``node``."""
        self._check_node(node)
        self._ensure_neighbors()
        node = int(node)
        return self._nbr_values[self._nbr_offsets[node] : self._nbr_offsets[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists.

        Two binary searches over the lexicographically sorted edge array —
        no per-edge Python set, so membership stays O(log m) with zero
        auxiliary memory even on million-edge graphs.
        """
        u, v = int(u), int(v)
        if u == v:
            return False
        if not (0 <= u < self._num_nodes and 0 <= v < self._num_nodes):
            return False
        lo, hi = (u, v) if u < v else (v, u)
        left = int(np.searchsorted(self._edges[:, 0], lo, side="left"))
        right = int(np.searchsorted(self._edges[:, 0], lo, side="right"))
        if left == right:
            return False
        row = self._edges[left:right, 1]
        i = int(np.searchsorted(row, hi))
        return i < row.shape[0] and int(row[i]) == hi

    def adjacency_matrix(self, dense: bool = False) -> sparse.csr_matrix | np.ndarray:
        """Return the symmetric adjacency matrix (CSR, or dense if requested)."""
        if self._adjacency is None:
            rows = np.concatenate([self._edges[:, 0], self._edges[:, 1]])
            cols = np.concatenate([self._edges[:, 1], self._edges[:, 0]])
            data = np.ones(rows.shape[0], dtype=np.float64)
            self._adjacency = sparse.csr_matrix(
                (data, (rows, cols)), shape=(self._num_nodes, self._num_nodes)
            )
        if dense:
            return self._adjacency.toarray()
        return self._adjacency

    def content_fingerprint(self) -> str:
        """Content hash of the graph (node count + canonical edge array).

        Memoized on first use — the instance is immutable (every mutation
        helper returns a new graph), same as the lazy adjacency — so cache
        layers keyed by graph content pay the edge-array hash only once.
        """
        if self._content_fingerprint is None:
            self._content_fingerprint = graph_content_fingerprint(
                self._num_nodes, self._edges
            )
        return self._content_fingerprint

    def has_edges_bulk(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_edge` for parallel node-index arrays.

        One binary search over the CSR adjacency keys instead of a Python
        set lookup per pair — the bulk negative sampler checks hundreds of
        thousands of candidate pairs per call.
        """
        from ..utils.sparse import csr_entry_keys, csr_lookup, indices_in_range

        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if not indices_in_range(self._num_nodes, u, v):
            raise GraphError(
                f"node index outside [0, {self._num_nodes}) in bulk edge query"
            )
        adjacency = self.adjacency_matrix()
        if self._adjacency_keys is None:
            self._adjacency_keys = csr_entry_keys(adjacency)
        _, found = csr_lookup(adjacency, u, v, keys=self._adjacency_keys)
        return found & (u != v)

    # ------------------------------------------------------------------ #
    # graph-level operations
    # ------------------------------------------------------------------ #
    def subgraph_without_edges(self, removed: Iterable[tuple[int, int]], name: str | None = None) -> "Graph":
        """Return a copy of the graph with the given edges removed.

        Used by the link-prediction split, which hides 10% of edges from the
        training graph.
        """
        keys = self._edges[:, 0] * np.int64(self._num_nodes) + self._edges[:, 1]
        kept = self._edges[~np.isin(keys, self._pair_keys(removed))]
        return Graph(self._num_nodes, kept, name=name or f"{self._name}-pruned")

    def with_extra_edges(self, added: Iterable[tuple[int, int]], name: str | None = None) -> "Graph":
        """Return a copy of the graph with additional edges inserted.

        Inserting an edge that is already present (or listed twice in
        ``added``) warns with :class:`RuntimeWarning` instead of silently
        deduplicating — a delta author applying the same batch twice should
        hear about it rather than get a structurally identical graph back.
        """
        extra = np.asarray([(int(u), int(v)) for u, v in added], dtype=np.int64)
        edges = (
            np.concatenate([self._edges, extra.reshape(-1, 2)], axis=0)
            if extra.size
            else self._edges
        )
        graph = Graph(self._num_nodes, edges, name=name or f"{self._name}-augmented")
        if extra.size:
            requested = int(extra.reshape(-1, 2).shape[0])
            dropped = requested - (graph.num_edges - self.num_edges)
            if dropped:
                warnings.warn(
                    f"{dropped} of {requested} inserted edges were already present "
                    f"in graph {self._name!r} or duplicated within the batch; they "
                    "were collapsed (double-applied delta?)",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return graph

    def remove_node_edges(self, node: int, name: str | None = None) -> "Graph":
        """Return a node-level neighbour of this graph.

        Under bounded node-level DP, a neighbouring graph keeps the same node
        set but replaces all edges incident to one node; the most adversarial
        replacement for sensitivity analysis removes them entirely.
        """
        self._check_node(node)
        node = int(node)
        kept = self._edges[(self._edges[:, 0] != node) & (self._edges[:, 1] != node)]
        return Graph(self._num_nodes, kept, name=name or f"{self._name}-minus-{node}")

    def connected_components(self) -> list[np.ndarray]:
        """Return connected components as arrays of node ids (largest first)."""
        n_components, labels = sparse.csgraph.connected_components(
            self.adjacency_matrix(), directed=False
        )
        components = [np.where(labels == c)[0] for c in range(n_components)]
        components.sort(key=len, reverse=True)
        return components

    def non_edges_sample(
        self,
        count: int,
        rng: np.random.Generator,
        exclude: Iterable[tuple[int, int]] | None = None,
        max_attempts_factor: int = 200,
    ) -> np.ndarray:
        """Sample ``count`` distinct node pairs that are *not* edges.

        Used to build negative examples for link prediction.  Pairs come
        back **in draw order** (each row canonicalised to ``u < v``) — a
        consumer slicing a prefix gets an unbiased subsample, which the
        old ``sorted(found)`` return silently violated (prefixes were
        biased toward low node indices).

        Sampling is vectorised rejection: bulk uniform draws filtered
        through :meth:`has_edges_bulk`.  When the graph is dense enough
        that rejection would thrash (or the attempt budget runs out), the
        exact complement is enumerated and a uniform permutation of it is
        returned instead, so dense graphs succeed whenever enough
        non-edges exist at all.  :class:`GraphError` is raised only when
        the graph genuinely has fewer than ``count`` eligible non-edges.
        """
        if count < 0:
            raise GraphError(f"count must be non-negative, got {count}")
        n = self._num_nodes
        # degenerate excludes (self-pairs, out-of-range pairs) can never be
        # drawn: drop them here so they neither reduce the capacity check
        # nor alias a valid pair in the ``lo * n + hi`` key encoding
        excluded = np.unique(
            self._pair_keys(exclude if exclude is not None else (), distinct=True)
        )
        total_pairs = n * (n - 1) // 2
        # excludes that are already edges cannot be drawn either
        excluded_non_edges = int(
            np.count_nonzero(~self.has_edges_bulk(excluded // n, excluded % n))
        )
        available = total_pairs - self.num_edges - excluded_non_edges
        if available < count:
            raise GraphError(
                f"graph {self._name!r} has only {available} eligible non-edges, "
                f"{count} requested"
            )
        if count == 0:
            return np.empty((0, 2), dtype=np.int64)
        # dense regime: most draws would hit edges — enumerate exactly
        if self.density >= 0.5 or available <= 4 * count:
            return self._non_edges_exact(count, rng, excluded)

        found = np.empty(0, dtype=np.int64)
        attempts = 0
        max_attempts = max(1, count) * max(1, max_attempts_factor)
        while len(found) < count and attempts < max_attempts:
            batch = min(max_attempts - attempts, max(256, 2 * (count - len(found))))
            u = rng.integers(0, n, size=batch)
            v = rng.integers(0, n, size=batch)
            attempts += batch
            lo = np.minimum(u, v)
            hi = np.maximum(u, v)
            keep = (lo != hi) & ~self.has_edges_bulk(lo, hi)
            keys = lo[keep] * n + hi[keep]
            keys = keys[~np.isin(keys, excluded) & ~np.isin(keys, found)]
            # first occurrence of each key, in draw order
            first = np.sort(np.unique(keys, return_index=True)[1])
            found = np.concatenate([found, keys[first[: count - len(found)]]])
        if len(found) < count:
            # the budget ran out but enough non-edges exist (checked above):
            # fall back to the exact complement instead of spuriously failing
            return self._non_edges_exact(count, rng, excluded)
        return np.stack([found // n, found % n], axis=1)

    def _pair_keys(
        self, pairs: Iterable[tuple[int, int]], distinct: bool = False
    ) -> np.ndarray:
        """``lo * n + hi`` keys of the in-range ``pairs``, in input order.

        Pairs with an endpoint outside ``[0, n)`` are dropped, and so are
        self-pairs when ``distinct``.
        """
        arr = np.asarray(
            pairs if isinstance(pairs, np.ndarray) else list(pairs), dtype=np.int64
        ).reshape(-1, 2)
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        valid = (lo >= 0) & (hi < self._num_nodes)
        if distinct:
            valid &= lo < hi
        return lo[valid] * np.int64(self._num_nodes) + hi[valid]

    def _non_edges_exact(
        self, count: int, rng: np.random.Generator, excluded: np.ndarray
    ) -> np.ndarray:
        """Uniform sample of the explicitly enumerated non-edge complement."""
        n = self._num_nodes
        iu, ju = np.triu_indices(n, k=1)
        adjacency = self.adjacency_matrix()
        keep = np.asarray(adjacency[iu, ju]).ravel() == 0
        if excluded.size:
            keep &= ~np.isin(iu * np.int64(n) + ju, excluded)
        candidates = np.stack([iu[keep], ju[keep]], axis=1).astype(np.int64)
        if candidates.shape[0] < count:  # pragma: no cover - guarded by caller
            raise GraphError(
                f"graph {self._name!r} has only {candidates.shape[0]} eligible "
                f"non-edges, {count} requested"
            )
        order = rng.permutation(candidates.shape[0])[:count]
        return candidates[order]

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[int]:
        return iter(range(self._num_nodes))

    def __len__(self) -> int:
        return self._num_nodes

    def __repr__(self) -> str:
        return (
            f"Graph(name={self._name!r}, num_nodes={self._num_nodes}, "
            f"num_edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and self._edges.shape == other._edges.shape
            and bool(np.all(self._edges == other._edges))
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing is enough
        return id(self)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _ensure_neighbors(self) -> None:
        """Build the CSR-style neighbour structure on first use.

        One lexsort over both edge directions replaces the per-node Python
        bucket lists: ``_nbr_values[_nbr_offsets[u]:_nbr_offsets[u+1]]`` is
        the sorted neighbour array of ``u``.
        """
        if self._nbr_values is not None:
            return
        if not self.num_edges:
            self._nbr_values = np.empty(0, dtype=np.int64)
            self._nbr_offsets = np.zeros(self._num_nodes + 1, dtype=np.int64)
            return
        ends = np.concatenate([self._edges[:, 0], self._edges[:, 1]])
        other = np.concatenate([self._edges[:, 1], self._edges[:, 0]])
        order = np.lexsort((other, ends))
        self._nbr_values = np.ascontiguousarray(other[order])
        counts = np.bincount(ends, minlength=self._num_nodes)
        offsets = np.zeros(self._num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._nbr_offsets = offsets

    def _check_node(self, node: int) -> None:
        if not 0 <= int(node) < self._num_nodes:
            raise GraphError(f"node {node} is outside [0, {self._num_nodes})")

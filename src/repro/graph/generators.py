"""Synthetic graph generators.

The paper evaluates on six public networks (Chameleon, PPI, Power, Arxiv,
BlogCatalog, DBLP).  Those downloads are not available offline, so the
dataset registry in :mod:`repro.graph.datasets` builds synthetic stand-ins
from the generators below, each matching the topology family of the original
(dense scale-free web graph, power-law biological network, sparse
quasi-planar grid, collaboration network, dense social network, large sparse
citation network).

All generators return :class:`repro.graph.Graph` instances, take an explicit
``rng``/``seed`` and never touch global random state.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..exceptions import ConfigurationError, GraphError
from ..utils.rng import ensure_rng
from .graph import Graph

__all__ = [
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "powerlaw_cluster_graph",
    "stochastic_block_model_graph",
    "grid_with_rewiring_graph",
]

#: numpy's double from a raw PCG64 word ``w`` is ``(w >> 11) * 2**-53``
_DOUBLE_SCALE = 2.0**-53
_LOW32 = 0xFFFFFFFF
#: endpoint draws a rewire event tries before it keeps its edge
_REWIRE_TRIES = 50


def erdos_renyi_graph(
    num_nodes: int,
    edge_probability: float,
    seed: int | np.random.Generator | None = None,
    name: str = "erdos-renyi",
) -> Graph:
    """G(n, p) random graph.

    Every unordered pair is an edge independently with probability
    ``edge_probability``.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(f"edge_probability must be in [0, 1], got {edge_probability}")
    rng = ensure_rng(seed)
    iu, ju = np.triu_indices(num_nodes, k=1)
    mask = rng.random(iu.shape[0]) < edge_probability
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist(), strict=True))
    return Graph(num_nodes, edges, name=name)


def barabasi_albert_graph(
    num_nodes: int,
    edges_per_node: int,
    seed: int | np.random.Generator | None = None,
    name: str = "barabasi-albert",
    method: str = "sequential",
) -> Graph:
    """Preferential-attachment (scale-free) graph.

    Each new node attaches to ``edges_per_node`` existing nodes with
    probability proportional to their current degree.  Produces the heavy
    tailed degree distributions typical of web and social networks
    (Chameleon, BlogCatalog).

    ``method`` selects the construction algorithm:

    * ``"sequential"`` (default) — the original repeated-node-list loop.
      Its random stream is pinned: existing seeds keep producing the exact
      graphs they always did.
    * ``"batched"`` — the Batagelj–Brandes formulation: all attachment
      draws are sampled in one vectorised pass and resolved by pointer
      chasing, so million-node graphs build in seconds instead of minutes.
      Same degree-distribution family, but a *different* (and explicitly
      versioned) random stream, and occasional within-batch collisions mean
      a node can end up with slightly fewer than ``edges_per_node`` distinct
      attachments.
    """
    m = int(edges_per_node)
    if m < 1:
        raise GraphError(f"edges_per_node must be >= 1, got {m}")
    if num_nodes <= m:
        raise GraphError(
            f"num_nodes ({num_nodes}) must exceed edges_per_node ({m})"
        )
    if method not in {"sequential", "batched"}:
        raise GraphError(
            f"method must be 'sequential' or 'batched', got {method!r}"
        )
    rng = ensure_rng(seed)
    if method == "batched":
        return _barabasi_albert_batched(num_nodes, m, rng, name)
    edges: list[tuple[int, int]] = []
    # repeated-node list implements preferential attachment in O(1) per draw
    repeated: list[int] = []
    targets = list(range(m))
    for new_node in range(m, num_nodes):
        chosen: set[int] = set()
        for t in targets:
            edges.append((new_node, t))
            chosen.add(t)
        repeated.extend(chosen)
        repeated.extend([new_node] * len(chosen))
        targets = []
        while len(targets) < m:
            candidate = int(repeated[int(rng.integers(0, len(repeated)))])
            if candidate not in targets and candidate != new_node:
                targets.append(candidate)
    return Graph(num_nodes, edges, name=name)


def _barabasi_albert_batched(num_nodes: int, m: int, rng: np.random.Generator, name: str) -> Graph:
    """Batagelj–Brandes preferential attachment, fully vectorised.

    Edge ``e`` (0-indexed) belongs to node ``m + e // m``.  Node ``m``
    attaches deterministically to ``0 .. m-1``; every later edge draws one
    uniform position ``r`` over the ``2e`` endpoints written so far, which
    is exactly degree-proportional sampling over the current multigraph.
    Even positions resolve to a known source immediately; odd positions
    point at an earlier edge's target and are chased iteratively (chains
    are geometrically short, so the loop runs a handful of passes
    regardless of graph size).  Self-loops are dropped and the Graph
    constructor collapses duplicate attachments.
    """
    total = (num_nodes - m) * m
    sources = m + np.arange(total, dtype=np.int64) // m
    targets = np.empty(total, dtype=np.int64)
    targets[:m] = np.arange(m, dtype=np.int64)
    if total > m:
        draws = rng.integers(0, 2 * np.arange(m, total, dtype=np.int64))
        idx = np.arange(m, total, dtype=np.int64)
        ref = draws
        while idx.size:
            even = (ref & 1) == 0
            if even.any():
                targets[idx[even]] = sources[ref[even] >> 1]
            odd_idx = idx[~even]
            j = (ref[~even] - 1) >> 1  # earlier edge whose target we need
            known = j < m
            targets[odd_idx[known]] = j[known]
            idx = odd_idx[~known]
            ref = draws[j[~known] - m]
    keep = sources != targets
    edges = np.stack([sources[keep], targets[keep]], axis=1)
    return Graph(num_nodes, edges, name=name)


def watts_strogatz_graph(
    num_nodes: int,
    neighbors: int,
    rewire_probability: float,
    seed: int | np.random.Generator | None = None,
    name: str = "watts-strogatz",
) -> Graph:
    """Small-world ring lattice with random rewiring.

    Starts from a ring where every node connects to its ``neighbors`` nearest
    nodes (must be even) and rewires each edge with the given probability.

    The edges are visited in the iteration order of the set of ``(lo, hi)``
    tuples inserted node by node, which is what pins the seeded graphs.  Each
    draws one ``rng.random()``; below ``rewire_probability`` it then draws
    ``rng.integers(0, num_nodes)`` up to 50 times for an endpoint ``w`` that
    makes ``(u, w)`` neither a self-loop, nor a lattice edge, nor an earlier
    rewired edge, and keeps ``(u, v)`` if none does.  Those draws are decoded
    from the raw PCG64 stream (:class:`_Pcg64Words`), so the graph and
    the end state of ``rng`` are what the scalar calls would give, and
    ``rng`` must run on :class:`numpy.random.PCG64`.
    """
    k = int(neighbors)
    if k % 2 != 0 or k < 2:
        raise GraphError(f"neighbors must be a positive even integer, got {k}")
    if k >= num_nodes:
        raise GraphError(f"neighbors ({k}) must be smaller than num_nodes ({num_nodes})")
    if not 0.0 <= rewire_probability <= 1.0:
        raise GraphError(
            f"rewire_probability must be in [0, 1], got {rewire_probability}"
        )
    rng = ensure_rng(seed)
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ConfigurationError(
            "watts_strogatz_graph replays a PCG64 stream; got a Generator on "
            f"{type(rng.bit_generator).__name__}"
        )
    n, half = int(num_nodes), k // 2
    lo = np.repeat(np.arange(n, dtype=np.int64), half)
    hi = (lo + np.tile(np.arange(1, half + 1, dtype=np.int64), n)) % n
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    order = set(zip(lo.tolist(), hi.tolist(), strict=True))
    edges = np.fromiter(
        itertools.chain.from_iterable(order), dtype=np.int64, count=2 * len(order)
    ).reshape(-1, 2)
    words = _Pcg64Words(rng.bit_generator, below=float(rewire_probability))
    rows, targets = _rewire(words, edges[:, 0].tolist(), n, half)
    words.finish()
    edges[rows, 1] = targets
    return Graph(n, edges, name=name)


class _Pcg64Words:
    """A PCG64's raw 64-bit words, decoded the way numpy's scalar draws do.

    Words are read ahead, in blocks, from a copy of the caller's bit
    generator; ``pos`` is the next unread one.  numpy turns a word ``w``
    into the double ``(w >> 11)·2⁻⁵³``, and ``hits`` lists the positions of
    the words whose double falls below ``below``.  :meth:`finish` moves the
    caller's generator past the words read, as the scalar calls would have.
    """

    def __init__(self, bitgen: np.random.PCG64, below: float) -> None:
        state = bitgen.state
        self._bitgen = bitgen
        self._source = np.random.PCG64(0)
        self._source.state = state
        self._has_half = bool(state["has_uint32"])
        self._half = int(state["uinteger"])
        self._below = below
        self.words: list[int] = []
        self.hits: list[int] = []
        self.pos = 0

    def more(self, count: int) -> None:
        """Read ``count`` more words."""
        block = self._source.random_raw(count)
        hits = np.flatnonzero((block >> 11) * _DOUBLE_SCALE < self._below)
        self.hits.extend((hits + len(self.words)).tolist())
        self.words.extend(block.tolist())

    def integer(self, n: int) -> int:
        """``Generator.integers(0, n)`` for ``2 <= n <= 2**32``.

        Reads a 32-bit half: the high half buffered by the previous call,
        else the low half of a fresh word.  Lemire's (2019) multiply-shift
        maps it to ``x·n >> 32`` and rejects a low product below
        ``(2³² − n) mod n``.
        """
        threshold = (2**32 - n) % n
        while True:
            if self._has_half:
                x, self._has_half = self._half, False
            else:
                if self.pos == len(self.words):
                    self.more(len(self.words) // 2 + 64)
                word = self.words[self.pos]
                self.pos += 1
                x, self._half, self._has_half = word & _LOW32, word >> 32, True
            product = x * n
            if product & _LOW32 >= threshold:
                return product >> 32

    def finish(self) -> None:
        """Advance the caller's generator by ``pos`` words, half buffer included."""
        self._bitgen.advance(self.pos)
        state = self._bitgen.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        self._bitgen.state = state


def _rewire(
    words: _Pcg64Words, heads: list[int], n: int, half: int
) -> tuple[list[int], list[int]]:
    """Walk the Watts–Strogatz rewire events over ``words``.

    ``heads[i]`` is the lower endpoint of the i-th edge in draw order, and
    ``words`` hits are the doubles below the rewire probability.  An edge
    without a rewire event costs one word, so the edges between two events
    are skipped in bulk.  Returns the rewired edges' indices and their new
    endpoints; ``words.pos`` ends past the last edge's word.
    """
    m = len(heads)
    words.more(m + m // 2 + 64)  # one word per edge, a half per endpoint draw
    new_keys: set[int] = set()
    rows: list[int] = []
    targets: list[int] = []
    edge = hit = 0
    while True:
        while hit < len(words.hits) and words.hits[hit] < words.pos:
            hit += 1  # that word was read as a bounded int
        if hit == len(words.hits):
            if edge + len(words.words) - words.pos >= m:
                break
            words.more(m)
            continue
        e = edge + words.hits[hit] - words.pos
        if e >= m:
            break
        edge, words.pos = e + 1, words.hits[hit] + 1
        u = heads[e]
        for _ in range(_REWIRE_TRIES):
            w = words.integer(n)
            key = u * n + w if u < w else w * n + u
            # ring distance beyond half: no self-loop and no lattice edge
            if half < abs(w - u) < n - half and key not in new_keys:
                new_keys.add(key)
                rows.append(e)
                targets.append(w)
                break
    words.pos += m - edge
    return rows, targets


def powerlaw_cluster_graph(
    num_nodes: int,
    edges_per_node: int,
    triangle_probability: float,
    seed: int | np.random.Generator | None = None,
    name: str = "powerlaw-cluster",
) -> Graph:
    """Holme–Kim power-law graph with tunable clustering.

    Like Barabási–Albert, but after each preferential attachment step a
    triangle is closed with probability ``triangle_probability``.  This is
    the regime of protein-interaction and collaboration networks (PPI,
    Arxiv).
    """
    m = int(edges_per_node)
    if m < 1:
        raise GraphError(f"edges_per_node must be >= 1, got {m}")
    if num_nodes <= m:
        raise GraphError(f"num_nodes ({num_nodes}) must exceed edges_per_node ({m})")
    if not 0.0 <= triangle_probability <= 1.0:
        raise GraphError(
            f"triangle_probability must be in [0, 1], got {triangle_probability}"
        )
    rng = ensure_rng(seed)
    edge_set: set[tuple[int, int]] = set()
    neighbors: list[set[int]] = [set() for _ in range(num_nodes)]
    repeated: list[int] = list(range(m))

    def add_edge(u: int, v: int) -> None:
        if u == v:
            return
        key = (min(u, v), max(u, v))
        if key in edge_set:
            return
        edge_set.add(key)
        neighbors[u].add(v)
        neighbors[v].add(u)

    for new_node in range(m, num_nodes):
        first_target = int(repeated[int(rng.integers(0, len(repeated)))])
        added: set[int] = set()
        target = first_target
        for _ in range(m):
            add_edge(new_node, target)
            added.add(target)
            close_triangle = rng.random() < triangle_probability and neighbors[target]
            if close_triangle:
                candidates = [w for w in neighbors[target] if w != new_node and w not in added]
                if candidates:
                    tri = int(candidates[int(rng.integers(0, len(candidates)))])
                    add_edge(new_node, tri)
                    added.add(tri)
            target = int(repeated[int(rng.integers(0, len(repeated)))])
        repeated.extend(added)
        repeated.extend([new_node] * max(1, len(added)))
    return Graph(num_nodes, list(edge_set), name=name)


def stochastic_block_model_graph(
    block_sizes: list[int],
    intra_probability: float,
    inter_probability: float,
    seed: int | np.random.Generator | None = None,
    name: str = "sbm",
) -> Graph:
    """Stochastic block model with uniform intra/inter-block probabilities.

    Used as a community-structured stand-in (DBLP-like scholarly network at
    reduced scale).
    """
    if not block_sizes or any(size <= 0 for size in block_sizes):
        raise GraphError(f"block_sizes must be positive, got {block_sizes}")
    for p, label in ((intra_probability, "intra"), (inter_probability, "inter")):
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"{label}_probability must be in [0, 1], got {p}")
    rng = ensure_rng(seed)
    num_nodes = int(sum(block_sizes))
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    iu, ju = np.triu_indices(num_nodes, k=1)
    same_block = labels[iu] == labels[ju]
    probs = np.where(same_block, intra_probability, inter_probability)
    mask = rng.random(iu.shape[0]) < probs
    edges = list(zip(iu[mask].tolist(), ju[mask].tolist(), strict=True))
    return Graph(num_nodes, edges, name=name)


def grid_with_rewiring_graph(
    rows: int,
    cols: int,
    rewire_probability: float = 0.0,
    seed: int | np.random.Generator | None = None,
    name: str = "grid",
) -> Graph:
    """2-D lattice with optional random rewiring.

    Approximates infrastructure networks such as the western-US power grid
    (sparse, quasi-planar, near-constant degree).
    """
    if rows < 1 or cols < 1:
        raise GraphError(f"rows and cols must be positive, got {rows}x{cols}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise GraphError(
            f"rewire_probability must be in [0, 1], got {rewire_probability}"
        )
    rng = ensure_rng(seed)
    num_nodes = rows * cols

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    edge_set: set[tuple[int, int]] = set()
    for r in range(rows):
        for c in range(cols):
            u = node_id(r, c)
            if c + 1 < cols:
                v = node_id(r, c + 1)
                edge_set.add((min(u, v), max(u, v)))
            if r + 1 < rows:
                v = node_id(r + 1, c)
                edge_set.add((min(u, v), max(u, v)))

    if rewire_probability > 0 and num_nodes > 2:
        final: set[tuple[int, int]] = set()
        for u, v in edge_set:
            if rng.random() < rewire_probability:
                for _ in range(50):
                    w = int(rng.integers(0, num_nodes))
                    key = (min(u, w), max(u, w))
                    if w != u and key not in final and key not in edge_set:
                        final.add(key)
                        break
                else:
                    final.add((u, v))
            else:
                final.add((u, v))
        edge_set = final
    return Graph(num_nodes, list(edge_set), name=name)

"""Vectorized batched top-k queries over a (possibly memory-mapped) matrix.

The serving counterpart of the training fast path: where
:class:`~repro.engine.workspace.StepWorkspace` preallocates every per-step
training array, :class:`QueryWorkspace` preallocates every per-query array —
the gather staging block, the float32 query block, the candidate-block
staging buffer, the score block and the packed ranking keys — so a steady
stream of ``top_k`` calls performs no array-sized allocations proportional
to the corpus.  The scan is *blocked*: candidates are scored
``block_rows`` at a time through one ``matmul`` into a reused score
buffer, so a 1M × 128 corpus never materializes more than a fixed-size
score block regardless of the batch size.

Ranking is done on packed 64-bit keys.  A finite float32 score maps to a
monotone 32-bit pattern (the classic sign-flip trick: flip the sign bit of
non-negative floats, complement negative ones), which is complemented into
a *descending* rank and packed with the candidate node id::

    key = (0xFFFFFFFF - ordered(score)) << 32 | node_id

Ascending ``argpartition`` over keys is then exactly "descending score,
ties broken by ascending node id" — the tie-break is deterministic *by
construction*, chunking cannot change it, and both the score and the id
are recovered from the key afterwards (the mapping is a bijection on
float32 bit patterns).  ``compute_dtype="float64"`` selects a chunked
reference path (stable argsort merge, same tie-break contract) used to pin
float32 score parity at rtol ≤ 1e-4, mirroring the PR-5 training-dtype
policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..analysis.markers import zero_alloc
from ..engine.workspace import resolve_compute_dtype
from ..exceptions import ConfigurationError
from ..robustness.faults import maybe_hit

__all__ = ["QueryEngine", "QueryWorkspace", "TopKResult"]

#: metrics top_k understands; "dot" is what skip-gram optimises (and what
#: Theorem 3 aligns with the proximity), "cosine" normalises away row norms.
METRICS = ("cosine", "dot")

#: sentinel ranking key, greater than every real packed key (real keys top
#: out at inv=0xFFFFFFFF with id <= num_nodes - 1 < 2**32 - 1)
_KEY_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)
_U32_MAX = np.uint32(0xFFFFFFFF)
_U32_SIGN = np.uint32(0x80000000)
_U32_LOW = np.uint32(0x7FFFFFFF)

#: floor applied to row norms so cosine never divides by zero
_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class TopKResult:
    """Batched top-k answer: row ``i`` answers query node ``nodes[i]``.

    ``ids[i]`` holds the ``k`` best candidate node ids in descending score
    order (ties: ascending id); ``scores[i]`` the matching similarity
    scores.  Both arrays are freshly allocated — they stay valid after the
    engine's workspace is reused by the next call.
    """

    ids: np.ndarray
    scores: np.ndarray

    @property
    def k(self) -> int:
        """Neighbours returned per query (may be less than requested ``k``)."""
        return int(self.ids.shape[1])


@zero_alloc
def _pack_keys_inplace(scores_u32: np.ndarray, mask: np.ndarray, keys: np.ndarray,
                       block_ids: np.ndarray) -> None:
    """Pack a float32 score block (viewed as uint32) into ranking keys.

    Everything runs through ``out=`` ufuncs into the workspace buffers:
    ``mask`` is clobbered as scratch, ``keys`` receives the packed result.
    """
    np.right_shift(scores_u32, np.uint32(31), out=mask)
    np.multiply(mask, _U32_LOW, out=mask)
    np.add(mask, _U32_SIGN, out=mask)
    np.bitwise_xor(scores_u32, mask, out=mask)      # ascending with the float
    np.subtract(_U32_MAX, mask, out=mask)           # descending rank
    np.copyto(keys, mask, casting="safe")
    np.left_shift(keys, np.uint64(32), out=keys)
    np.bitwise_or(keys, block_ids, out=keys)


def _unpack_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(ids, float32 scores)`` from packed ranking keys."""
    ids = (keys & np.uint64(0xFFFFFFFF)).astype(np.int64)
    inv = (keys >> np.uint64(32)).astype(np.uint32)
    ordered = _U32_MAX - inv
    xor_mask = np.where(ordered < _U32_SIGN, _U32_MAX, _U32_SIGN)
    scores = (ordered ^ xor_mask).view(np.float32)
    return ids, scores


#: byte step between the start offsets of the block-sized ranking buffers:
#: one page plus five cache lines, so no two share a page offset
_STAGGER_BYTES = 4096 + 5 * 64


def _staggered_zeros(shape: tuple[int, ...], dtype, slot: int) -> np.ndarray:
    """A zeroed buffer starting ``slot`` stagger steps into its allocation.

    The block-sized ranking buffers are whole multiples of 2 MiB, so
    allocated back to back they all start at the same offset within a
    page and within a huge page.  Where huge pages back them, the streams
    of one partition pass then compete for the same cache sets; measured
    on a 2-vCPU VM, offline top-k ran 10–15% slower in that placement.
    Shifting each buffer by a different number of bytes keeps them apart
    whatever pages back them.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    offset = slot * _STAGGER_BYTES
    raw = np.zeros(nbytes + offset + 64, dtype=np.uint8)
    start = offset + (-raw.ctypes.data) % 64  # keep 64-byte alignment
    return raw[start:start + nbytes].view(dtype).reshape(shape)


class QueryWorkspace:
    """Every per-query array of the serving fast path, allocated once.

    Mirrors :class:`~repro.engine.workspace.StepWorkspace`: buffers are
    sized by the engine geometry (``max_batch`` queries × ``block_rows``
    candidates × ``max_k`` results) and reused by every ``top_k`` /
    ``score_links`` call.  Float32 geometry adds the uint32/uint64 key
    buffers of the packed ranking path; the float64 reference path only
    needs the staging and score blocks.
    """

    def __init__(self, *, max_batch: int, max_k: int, block_rows: int, dim: int,
                 source_dtype, dtype=np.float32) -> None:
        self.max_batch = int(max_batch)
        self.max_k = int(max_k)
        self.block_rows = int(block_rows)
        self.dim = int(dim)
        self.dtype = resolve_compute_dtype(dtype)
        B, K, W, d = self.max_batch, self.max_k, self.block_rows, self.dim

        # ---- query gather + cast staging ----
        self.gather = np.zeros((B, d), dtype=source_dtype)
        self.queries = np.zeros((B, d), dtype=self.dtype)
        self.query_norms = np.ones((B, 1), dtype=self.dtype)

        # ---- blocked candidate scan ----
        # zero-initialised: the tail of the last (partial) block is still
        # fed through the matmul, so stale bits must at least be finite
        self.block = _staggered_zeros((W, d), self.dtype, 0)
        self.scores = _staggered_zeros((B, W), self.dtype, 1)

        if self.dtype == np.dtype(np.float32):
            # ---- packed-key ranking buffers (float32 fast path only) ----
            self.scores_u32 = self.scores.view(np.uint32)
            self.mask_u32 = _staggered_zeros((B, W), np.uint32, 2)
            self.keys = _staggered_zeros((B, W), np.uint64, 3)
            self.top = np.empty((B, K), dtype=np.uint64)
            self.combined = _staggered_zeros((B, K + W), np.uint64, 4)
            self.block_ids = np.empty(W, dtype=np.uint64)
            self.arange = np.arange(W, dtype=np.uint64)

        # ---- link-scoring buffers ----
        self.link_left_raw = np.zeros((B, d), dtype=source_dtype)
        self.link_right_raw = np.zeros((B, d), dtype=source_dtype)
        self.link_left = np.zeros((B, d), dtype=self.dtype)
        self.link_right = np.zeros((B, d), dtype=self.dtype)
        self.link_scores = np.zeros(B, dtype=self.dtype)

    def __repr__(self) -> str:
        return (
            f"QueryWorkspace(max_batch={self.max_batch}, max_k={self.max_k}, "
            f"block_rows={self.block_rows}, dim={self.dim}, dtype={self.dtype.name})"
        )


class QueryEngine:
    """Batched nearest-neighbour and link-scoring queries over embeddings.

    Parameters
    ----------
    embeddings:
        ``|V| × r`` matrix — an in-memory array or the ``np.memmap`` a
        :class:`~repro.serving.store.ServableModel` hands out (the engine
        never copies it; blocks are staged through the workspace).
    context_embeddings:
        Optional ``W_out`` matrix, kept for completeness (same shape).
    max_batch:
        Most queries scored per internal scan; longer batches are served
        in ``max_batch`` slices through the same workspace.
    max_k:
        Largest ``k`` a ``top_k`` call may request (bounds the merge
        buffers).  Defaults to ``min(|V|, 128)``.
    block_rows:
        Candidate rows scored per matmul block.  Bounds peak memory at
        ``O(max_batch × block_rows)`` independent of ``|V|``.  Defaults to
        ``min(|V|, 8192)``.
    compute_dtype:
        ``"float32"`` (default, packed-key fast path) or ``"float64"``
        (chunked reference path with identical tie-break semantics).
    profiler:
        Optional :class:`~repro.serving.profiler.QueryProfiler`; when
        installed, ``top_k`` records gather / matmul / partition phase
        wall time (one ``is None`` branch otherwise).
    """

    def __init__(self, embeddings, *, context_embeddings=None, max_batch: int = 64,
                 max_k: int | None = None, block_rows: int | None = None,
                 compute_dtype="float32", profiler=None) -> None:
        if not hasattr(embeddings, "ndim") or embeddings.ndim != 2:
            raise ConfigurationError(
                "QueryEngine expects a 2-D embedding matrix, got "
                f"{getattr(embeddings, 'shape', type(embeddings).__name__)}"
            )
        n, dim = embeddings.shape
        if n < 1 or dim < 1:
            raise ConfigurationError(f"embedding matrix must be non-empty, got shape {(n, dim)}")
        if embeddings.dtype.kind != "f":
            raise ConfigurationError(
                f"embeddings must be a float matrix, got dtype {embeddings.dtype}"
            )
        if n >= 2**32 - 1:
            raise ConfigurationError(
                "packed ranking keys address at most 2**32 - 2 nodes; "
                f"got {n} rows"
            )
        if context_embeddings is not None and context_embeddings.shape != embeddings.shape:
            raise ConfigurationError(
                f"context embeddings shape {context_embeddings.shape} does not match "
                f"embeddings {embeddings.shape}"
            )
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        self._emb = embeddings
        self._context = context_embeddings
        self.num_nodes = int(n)
        self.embedding_dim = int(dim)
        self.max_batch = int(max_batch)
        self.max_k = int(max_k) if max_k is not None else min(self.num_nodes, 128)
        if self.max_k < 1:
            raise ConfigurationError(f"max_k must be >= 1, got {self.max_k}")
        self.max_k = min(self.max_k, self.num_nodes)
        self.block_rows = int(block_rows) if block_rows is not None else min(self.num_nodes, 8192)
        if self.block_rows < 1:
            raise ConfigurationError(f"block_rows must be >= 1, got {self.block_rows}")
        self.compute_dtype = resolve_compute_dtype(compute_dtype)
        self.profiler = profiler
        self._norms: np.ndarray | None = None
        self.workspace = QueryWorkspace(
            max_batch=self.max_batch, max_k=self.max_k, block_rows=self.block_rows,
            dim=self.embedding_dim, source_dtype=self._emb.dtype, dtype=self.compute_dtype,
        )

    # ------------------------------------------------------------------ #
    @property
    def embeddings(self) -> np.ndarray:
        """The served matrix (zero-copy view of whatever was handed in)."""
        return self._emb

    def _ensure_norms(self) -> np.ndarray:
        """Precompute (once) the clamped row L2 norms in the compute dtype.

        Computed blockwise through the staging buffer so the scan never
        materializes more than one candidate block, even on a memmapped
        million-row matrix.
        """
        if self._norms is None:
            norms = np.empty(self.num_nodes, dtype=self.compute_dtype)
            block = self.workspace.block
            for start in range(0, self.num_nodes, self.block_rows):
                stop = min(start + self.block_rows, self.num_nodes)
                nb = stop - start
                np.copyto(block[:nb], self._emb[start:stop], casting="same_kind")
                np.einsum("ij,ij->i", block[:nb], block[:nb], out=norms[start:stop])
            np.sqrt(norms, out=norms)
            np.maximum(norms, self.compute_dtype.type(_NORM_FLOOR), out=norms)
            self._norms = norms
        return self._norms

    def _validate_nodes(self, nodes, *, name: str = "nodes") -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.ndim != 1:
            raise ConfigurationError(f"{name} must be a 1-D sequence of node ids")
        if nodes.size and (nodes.min() < 0 or nodes.max() >= self.num_nodes):
            raise ConfigurationError(
                f"{name} contains ids outside [0, {self.num_nodes}): "
                f"min={nodes.min()}, max={nodes.max()}"
            )
        return nodes

    # ------------------------------------------------------------------ #
    def top_k(self, nodes, k: int, *, metric: str = "cosine",
              exclude_self: bool = True) -> TopKResult:
        """Best ``k`` candidates for each query node, by descending score.

        ``k`` is clamped to the number of eligible candidates
        (``|V| - 1`` when ``exclude_self``), so ``k >= |V|`` asks for the
        full ranking.  Ties are broken by ascending node id — the order is
        identical whatever ``block_rows`` or batch slicing is in effect.
        Duplicate query ids are answered independently.
        """
        nodes = self._validate_nodes(nodes)
        if int(k) < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        if metric not in METRICS:
            raise ConfigurationError(f"unknown metric {metric!r}; available: {METRICS}")
        maybe_hit(
            "serving.engine.query", k=int(k), metric=metric, batch=int(nodes.size)
        )
        k_eff = min(int(k), self.num_nodes - 1 if exclude_self else self.num_nodes)
        k_eff = max(k_eff, 0)
        if k_eff == 0 or nodes.size == 0:
            return TopKResult(
                ids=np.empty((nodes.size, k_eff), dtype=np.int64),
                scores=np.empty((nodes.size, k_eff), dtype=self.compute_dtype),
            )
        if k_eff > self.max_k:
            raise ConfigurationError(
                f"k={k} needs {k_eff} results but this engine was built with "
                f"max_k={self.max_k}; construct QueryEngine(..., max_k={k_eff})"
            )
        chunks = []
        for start in range(0, nodes.size, self.max_batch):
            batch = nodes[start:start + self.max_batch]
            if self.compute_dtype == np.dtype(np.float32):
                chunks.append(self._topk_batch_f32(batch, k_eff, metric, exclude_self))
            else:
                chunks.append(self._topk_batch_f64(batch, k_eff, metric, exclude_self))
        if self.profiler is not None:
            self.profiler.add_queries(nodes.size)
        if len(chunks) == 1:
            ids, scores = chunks[0]
        else:
            ids = np.concatenate([c[0] for c in chunks], axis=0)
            scores = np.concatenate([c[1] for c in chunks], axis=0)
        return TopKResult(ids=ids, scores=scores)

    # ------------------------------------------------------------------ #
    def _topk_batch_f32(self, nodes: np.ndarray, k: int, metric: str,
                        exclude_self: bool) -> tuple[np.ndarray, np.ndarray]:
        ws = self.workspace
        prof = self.profiler
        B = nodes.size
        W = self.block_rows

        tick = time.perf_counter() if prof is not None else 0.0
        norms = self._ensure_norms() if metric == "cosine" else None
        np.take(self._emb, nodes, axis=0, out=ws.gather[:B])
        np.copyto(ws.queries[:B], ws.gather[:B], casting="same_kind")
        if norms is not None:
            np.take(norms, nodes, out=ws.query_norms[:B, 0])
        if prof is not None:
            prof.record("gather", time.perf_counter() - tick)

        matmul_seconds = 0.0
        partition_seconds = 0.0
        top = ws.top[:B, :k]
        top.fill(_KEY_SENTINEL)
        combined = ws.combined[:B, :k + W]
        for start in range(0, self.num_nodes, W):
            stop = min(start + W, self.num_nodes)
            nb = stop - start

            tick = time.perf_counter() if prof is not None else 0.0
            np.copyto(ws.block[:nb], self._emb[start:stop], casting="same_kind")
            np.matmul(ws.queries[:B], ws.block.T, out=ws.scores[:B])
            if norms is not None:
                np.divide(ws.scores[:B, :nb], norms[start:stop], out=ws.scores[:B, :nb])
                np.divide(ws.scores[:B, :nb], ws.query_norms[:B], out=ws.scores[:B, :nb])
            if prof is not None:
                now = time.perf_counter()
                matmul_seconds += now - tick
                tick = now

            np.add(ws.arange, np.uint64(start), out=ws.block_ids)
            keys = ws.keys[:B]
            _pack_keys_inplace(ws.scores_u32[:B], ws.mask_u32[:B], keys, ws.block_ids)
            if nb < W:
                keys[:, nb:] = _KEY_SENTINEL
            if exclude_self:
                here = np.flatnonzero((nodes >= start) & (nodes < stop))
                if here.size:
                    keys[here, nodes[here] - start] = _KEY_SENTINEL
            combined[:, :k] = top
            combined[:, k:] = keys
            part = np.argpartition(combined, k - 1, axis=1)[:, :k]
            top[:, :] = np.take_along_axis(combined, part, axis=1)
            if prof is not None:
                partition_seconds += time.perf_counter() - tick

        tick = time.perf_counter() if prof is not None else 0.0
        ids, scores = _unpack_keys(np.sort(top, axis=1))
        if prof is not None:
            partition_seconds += time.perf_counter() - tick
            prof.record("matmul", matmul_seconds)
            prof.record("partition", partition_seconds)
        return ids, scores

    def _topk_batch_f64(self, nodes: np.ndarray, k: int, metric: str,
                        exclude_self: bool) -> tuple[np.ndarray, np.ndarray]:
        """Chunked float64 reference ranking (same tie-break contract).

        Blocks are scanned in ascending id order and merged with a *stable*
        argsort on the negated scores: every id in the running top list
        precedes every id of the current block and (inductively) ties
        within the list are already id-ascending, so stable appearance
        order equals "descending score, ascending id" — the same contract
        the packed keys enforce, without the 32-bit packing.
        """
        prof = self.profiler
        B = nodes.size

        tick = time.perf_counter() if prof is not None else 0.0
        norms = self._ensure_norms() if metric == "cosine" else None
        queries = np.asarray(self._emb[nodes], dtype=np.float64)
        query_norms = norms[nodes][:, None] if norms is not None else None
        if prof is not None:
            prof.record("gather", time.perf_counter() - tick)

        matmul_seconds = 0.0
        partition_seconds = 0.0
        top_scores = np.empty((B, 0), dtype=np.float64)
        top_ids = np.empty((B, 0), dtype=np.int64)
        for start in range(0, self.num_nodes, self.block_rows):
            stop = min(start + self.block_rows, self.num_nodes)

            tick = time.perf_counter() if prof is not None else 0.0
            block = np.asarray(self._emb[start:stop], dtype=np.float64)
            scores = queries @ block.T
            if norms is not None:
                scores /= norms[start:stop]
                scores /= query_norms
            if exclude_self:
                here = np.flatnonzero((nodes >= start) & (nodes < stop))
                if here.size:
                    scores[here, nodes[here] - start] = -np.inf
            if prof is not None:
                now = time.perf_counter()
                matmul_seconds += now - tick
                tick = now

            ids = np.broadcast_to(np.arange(start, stop, dtype=np.int64), scores.shape)
            merged_scores = np.concatenate([top_scores, scores], axis=1)
            merged_ids = np.concatenate([top_ids, ids], axis=1)
            order = np.argsort(-merged_scores, axis=1, kind="stable")[:, :k]
            top_scores = np.take_along_axis(merged_scores, order, axis=1)
            top_ids = np.take_along_axis(merged_ids, order, axis=1)
            if prof is not None:
                partition_seconds += time.perf_counter() - tick
        if prof is not None:
            prof.record("matmul", matmul_seconds)
            prof.record("partition", partition_seconds)
        return top_ids, top_scores

    # ------------------------------------------------------------------ #
    @zero_alloc
    def score_links(self, u, v, *, raw: bool = False) -> np.ndarray:
        """Eq.-aligned link scores ``σ(w_u · w_v)`` for node pairs.

        The skip-gram objective drives the inner product ``w_u · w_v``
        toward the structure preference (Theorem 3), so the sigmoid of the
        dot product is the model's link probability — the same quantity
        the Eq. (5) positive term maximises.  ``raw=True`` returns the raw
        inner products (what :func:`repro.evaluation.score_edges` ranks by
        with the default ``"dot"`` scorer).
        """
        u = self._validate_nodes(u, name="u")
        v = self._validate_nodes(v, name="v")
        if u.shape != v.shape:
            raise ConfigurationError(
                f"u and v must have the same length, got {u.size} and {v.size}"
            )
        ws = self.workspace
        # the answer itself is the one legitimate allocation: O(batch), and
        # it must outlive the next call's workspace reuse
        out = np.empty(u.size, dtype=self.compute_dtype)  # repro-lint: disable=ALLOC001 -- O(batch) result buffer returned to the caller
        for start in range(0, u.size, self.max_batch):
            stop = min(start + self.max_batch, u.size)
            B = stop - start
            np.take(self._emb, u[start:stop], axis=0, out=ws.link_left_raw[:B])
            np.take(self._emb, v[start:stop], axis=0, out=ws.link_right_raw[:B])
            np.copyto(ws.link_left[:B], ws.link_left_raw[:B], casting="same_kind")
            np.copyto(ws.link_right[:B], ws.link_right_raw[:B], casting="same_kind")
            scores = ws.link_scores[:B]
            np.einsum("ij,ij->i", ws.link_left[:B], ws.link_right[:B], out=scores)
            if not raw:
                # stable in-place sigmoid (same clamp as utils.math.sigmoid)
                np.clip(scores, -35.0, 35.0, out=scores)
                np.negative(scores, out=scores)
                np.exp(scores, out=scores)
                np.add(scores, self.compute_dtype.type(1.0), out=scores)
                np.reciprocal(scores, out=scores)
            out[start:stop] = scores
        return out

    def __repr__(self) -> str:
        return (
            f"QueryEngine(num_nodes={self.num_nodes}, dim={self.embedding_dim}, "
            f"max_batch={self.max_batch}, max_k={self.max_k}, "
            f"block_rows={self.block_rows}, dtype={self.compute_dtype.name})"
        )

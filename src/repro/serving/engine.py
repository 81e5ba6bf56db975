"""Vectorized batched top-k queries over a (possibly memory-mapped) matrix.

The serving counterpart of the training fast path: where
:class:`~repro.engine.workspace.StepWorkspace` preallocates every per-step
training array, :class:`QueryWorkspace` preallocates every per-query array —
the float32 query block, the score block and the strip maxima — so a
steady stream of ``top_k`` calls performs no array-sized allocations
proportional to the corpus.  Every query is served in float32 from one
corpus prepared when the engine is built: a float32 matrix (such as a
mapped servable) is used as handed in, any other float matrix is cast
once.  The scan is *blocked*: candidates are scored ``block_rows`` at a
time through one ``matmul`` on a slice of that corpus into a reused score
buffer, so a 1M × 128 corpus never materializes more than a fixed-size
score block regardless of the batch size.

Ranking is done on packed 64-bit keys.  A finite float32 score maps to a
monotone 32-bit pattern (the classic sign-flip trick: flip the sign bit of
non-negative floats, complement negative ones), which is complemented into
a *descending* rank and packed with the candidate node id::

    key = (0xFFFFFFFF - ordered(score)) << 32 | node_id

Ascending order over keys is "descending score, ties by ascending node
id" by construction, whatever the chunking, and score and id are both
recovered from a key.  Only candidates that can still enter a row's top-k
are packed.  Each block row is cut into strips (strip g holds columns g,
g + G, g + 2G, …) and reduced to its strip maxima; for cosine only the
maxima are divided by the query norm, which gives the bits a full-block
divide would, because rounded division by a positive number is monotone.
A row's running threshold starts at its k-th best strip maximum (k strips
hold k distinct real candidates) and then becomes the worst score of its
running top-k.  Only strips whose maximum is ``>=`` the threshold are
gathered, divided and compared, and only their entries ``>=`` it are
packed and merged.  ``>=`` passes every candidate whose key could enter,
so the answer is bit for bit that of a full-block partition.  NaN never
passes: it ranks after every other score, by ascending id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..analysis.markers import zero_alloc
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
_SENTINEL_ID = 0xFFFFFFFF  # the node id a sentinel key unpacks to
#: most columns per strip: a ``block_rows``-wide block is cut into
#: ``ceil(block_rows / 16)`` strips, each ranked by its maximum
_STRIP_COLUMNS = 16

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


def _seed_threshold(maxima: np.ndarray, seed: np.ndarray, k: int, thr: np.ndarray) -> None:
    """Each row's k-th best strip maximum, NaN left out.

    The maxima of k strips are k distinct real candidates, so they bound
    the final k-th best score from below; a row with fewer than k non-NaN
    maxima gets -inf.
    """
    thr.fill(-np.inf)
    if k <= maxima.shape[1]:
        np.negative(maxima, out=seed)
        seed.partition(k - 1, axis=1)  # NaN sorts last
        np.fmax(np.negative(seed[:, k - 1], out=thr), -np.inf, out=thr)


def _merge_survivors(top: np.ndarray, rows: np.ndarray, ids: np.ndarray,
                     scores: np.ndarray) -> None:
    """Merge candidates ``ids`` scored ``scores`` into rows ``rows`` (ascending) of ``top``."""
    B, k = top.shape
    keys = np.empty(ids.size, dtype=np.uint64)
    _pack_keys_inplace(scores.view(np.uint32), np.empty(ids.size, dtype=np.uint32),
                       keys, ids.view(np.uint64))
    counts = np.bincount(rows, minlength=B)
    merged = np.full((B, k + int(counts.max())), _KEY_SENTINEL)
    merged[:, :k] = top
    slots = np.arange(k, k + rows.size)
    slots -= (np.cumsum(counts) - counts)[rows]
    merged[rows, slots] = keys
    merged.partition(k - 1, axis=1)
    top[:] = merged[:, :k]


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
    Shifting each buffer by a different number of bytes past a page
    boundary keeps them apart whatever pages back them.
    """
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    offset = slot * _STAGGER_BYTES
    raw = np.zeros(nbytes + offset + 4096, dtype=np.uint8)
    start = offset + (-raw.ctypes.data) % 4096
    return raw[start:start + nbytes].view(dtype).reshape(shape)


class QueryWorkspace:
    """Every per-query array of the serving fast path, allocated once.

    Mirrors :class:`~repro.engine.workspace.StepWorkspace`: buffers are
    sized by the engine geometry (``max_batch`` queries × ``block_rows``
    candidates × ``max_k`` results) and reused by every ``top_k`` /
    ``score_links`` call.  Vectors and scores are float32, beside the
    strip maxima and uint64 keys of the pruned ranking.  Candidate rows
    are never staged: the engine's float32 corpus is read in place.
    """

    def __init__(self, *, max_batch: int, max_k: int, block_rows: int, dim: int) -> None:
        self.max_batch = int(max_batch)
        self.max_k = int(max_k)
        self.block_rows = int(block_rows)
        self.dim = int(dim)
        B, K, W, d = self.max_batch, self.max_k, self.block_rows, self.dim
        #: a block is ranked as ``strips`` strips of at most ``strip_len``
        #: columns each; strip g holds columns g, g + strips, g + 2·strips, …
        self.strips = -(-W // _STRIP_COLUMNS)
        self.strip_len = -(-W // self.strips)
        G = self.strips

        # ---- query gather ----
        self.queries = np.zeros((B, d), dtype=np.float32)
        self.query_norms = np.ones((B, 1), dtype=np.float32)

        # ---- blocked candidate scan + strip-gated ranking ----
        self.scores = _staggered_zeros((B, self.strip_len * G), np.float32, 1)
        self.strip_max = np.empty((B, G), dtype=np.float32)
        self.seed = np.empty((B, G), dtype=np.float32)
        self.threshold = np.empty(B, dtype=np.float32)
        self.top = np.empty((B, K), dtype=np.uint64)

        # ---- link-scoring buffers ----
        self.link_left = np.zeros((B, d), dtype=np.float32)
        self.link_right = np.zeros((B, d), dtype=np.float32)
        self.link_scores = np.zeros(B, dtype=np.float32)

    def __repr__(self) -> str:
        return (
            f"QueryWorkspace(max_batch={self.max_batch}, max_k={self.max_k}, "
            f"block_rows={self.block_rows}, dim={self.dim})"
        )


class QueryEngine:
    """Batched nearest-neighbour and link-scoring queries over embeddings.

    Parameters
    ----------
    embeddings:
        ``|V| × r`` float matrix — an in-memory array or the ``np.memmap``
        a :class:`~repro.serving.store.ServableModel` hands out.  Queries
        are served in float32 from one corpus prepared here: a float32
        matrix is used as handed in (a mapped servable stays zero-copy),
        any other float matrix is cast once, at ``|V| · r · 4`` bytes of
        heap.
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
    profiler:
        Optional :class:`~repro.serving.profiler.QueryProfiler`; when
        installed, ``top_k`` records gather / matmul / partition phase
        wall time (one ``is None`` branch otherwise).
    """

    def __init__(self, embeddings, *, max_batch: int = 64, max_k: int | None = None,
                 block_rows: int | None = None, profiler=None) -> None:
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
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
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
        self.profiler = profiler
        self._corpus = np.asarray(embeddings, dtype=np.float32)
        # clamped row L2 norms for cosine, from the float32 rows themselves
        self._row_norms = np.einsum("ij,ij->i", self._corpus, self._corpus)
        np.sqrt(self._row_norms, out=self._row_norms)
        np.maximum(self._row_norms, np.float32(_NORM_FLOOR), out=self._row_norms)
        self.workspace = QueryWorkspace(
            max_batch=self.max_batch, max_k=self.max_k, block_rows=self.block_rows,
            dim=self.embedding_dim,
        )

    # ------------------------------------------------------------------ #
    @property
    def embeddings(self) -> np.ndarray:
        """The float32 matrix every query is served from.

        It is the matrix handed in when that was float32 (no copy), and
        its one float32 cast otherwise.
        """
        return self._corpus

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
                scores=np.empty((nodes.size, k_eff), dtype=np.float32),
            )
        if k_eff > self.max_k:
            raise ConfigurationError(
                f"k={k} needs {k_eff} results but this engine was built with "
                f"max_k={self.max_k}; construct QueryEngine(..., max_k={k_eff})"
            )
        chunks = []
        for start in range(0, nodes.size, self.max_batch):
            batch = nodes[start:start + self.max_batch]
            chunks.append(self._topk_batch(batch, k_eff, metric, exclude_self))
        if self.profiler is not None:
            self.profiler.add_queries(nodes.size)
        if len(chunks) == 1:
            ids, scores = chunks[0]
        else:
            ids = np.concatenate([c[0] for c in chunks], axis=0)
            scores = np.concatenate([c[1] for c in chunks], axis=0)
        return TopKResult(ids=ids, scores=scores)

    # ------------------------------------------------------------------ #
    def _topk_batch(self, nodes: np.ndarray, k: int, metric: str,
                    exclude_self: bool) -> tuple[np.ndarray, np.ndarray]:
        corpus = self._corpus
        ws = self.workspace
        prof = self.profiler
        B = nodes.size
        W = self.block_rows

        tick = time.perf_counter() if prof is not None else 0.0
        norms = self._row_norms if metric == "cosine" else None
        np.take(corpus, nodes, axis=0, out=ws.queries[:B])
        if norms is not None:
            np.take(norms, nodes, out=ws.query_norms[:B, 0])
        if prof is not None:
            prof.record("gather", time.perf_counter() - tick)

        matmul_seconds = 0.0
        partition_seconds = 0.0
        top = ws.top[:B, :k]
        top.fill(_KEY_SENTINEL)
        thr = ws.threshold[:B]
        maxima = ws.strip_max[:B]
        G = ws.strips
        width = ws.scores.shape[1]
        flat_scores = ws.scores.reshape(-1)
        for start in range(0, self.num_nodes, W):
            stop = min(start + W, self.num_nodes)
            nb = stop - start
            S = -(-nb // G)  # strip length in this block

            tick = time.perf_counter() if prof is not None else 0.0
            np.matmul(ws.queries[:B], corpus[start:stop].T, out=ws.scores[:B, :nb])
            if norms is not None:
                np.divide(ws.scores[:B, :nb], norms[start:stop], out=ws.scores[:B, :nb])
            if prof is not None:
                now = time.perf_counter()
                matmul_seconds += now - tick
                tick = now

            if exclude_self:
                here = np.flatnonzero((nodes >= start) & (nodes < stop))
                if here.size:
                    ws.scores[here, nodes[here] - start] = np.nan  # never passes a threshold
            ws.scores[:B, nb:S * G] = np.nan  # pad a partial last strip row; fmax skips NaN
            np.fmax.reduce(ws.scores[:B, :S * G].reshape(B, S, G), axis=1, out=maxima)
            if norms is not None:
                # x -> x / q rounds monotonically for q > 0, so the maximum
                # of the divided strip is the divided maximum, bit for bit
                np.divide(maxima, ws.query_norms[:B], out=maxima)
            if start == 0:
                _seed_threshold(maxima, ws.seed[:B], k, thr)
            # gather, divide and compare only the strips whose maximum passes
            first = np.flatnonzero(maxima >= thr[:, None])  # (row, strip), row-major
            rows = first // G
            first += rows * (width - G)  # -> flat index of the strip's first column
            flat = first[:, None] + np.arange(0, S * G, G)
            values = np.take(flat_scores, flat)
            if norms is not None:
                values /= ws.query_norms[rows]
            hits = np.flatnonzero(values >= thr[rows, None])
            if hits.size:
                hit_rows, ids = np.divmod(np.take(flat, hits), width)
                ids += start
                _merge_survivors(top, hit_rows, ids, np.take(values, hits))
                _, worst = _unpack_keys(top[:, k - 1])
                np.fmax(worst, -np.inf, out=thr)  # a sentinel (NaN) keeps -inf
            if prof is not None:
                partition_seconds += time.perf_counter() - tick

        tick = time.perf_counter() if prof is not None else 0.0
        ids, scores = _unpack_keys(np.sort(top, axis=1))
        # rows short of k non-NaN candidates: NaNs fill in by ascending id
        for row in np.flatnonzero(ids[:, -1] == _SENTINEL_ID):
            short = ids[row] == _SENTINEL_ID
            taken = np.append(ids[row], nodes[row]) if exclude_self else ids[row]
            fill = np.setdiff1d(np.arange(min(k + 1, self.num_nodes)), taken)
            ids[row, short] = fill[:np.count_nonzero(short)]
        if prof is not None:
            partition_seconds += time.perf_counter() - tick
            prof.record("matmul", matmul_seconds)
            prof.record("partition", partition_seconds)
        return ids, scores

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
        out = np.empty(u.size, dtype=np.float32)  # repro-lint: disable=ALLOC001 -- O(batch) result buffer returned to the caller
        for start in range(0, u.size, self.max_batch):
            stop = min(start + self.max_batch, u.size)
            B = stop - start
            np.take(self._corpus, u[start:stop], axis=0, out=ws.link_left[:B])
            np.take(self._corpus, v[start:stop], axis=0, out=ws.link_right[:B])
            scores = ws.link_scores[:B]
            np.einsum("ij,ij->i", ws.link_left[:B], ws.link_right[:B], out=scores)
            if not raw:
                # stable in-place sigmoid (same clamp as utils.math.sigmoid)
                np.clip(scores, -35.0, 35.0, out=scores)
                np.negative(scores, out=scores)
                np.exp(scores, out=scores)
                np.add(scores, np.float32(1.0), out=scores)
                np.reciprocal(scores, out=scores)
            out[start:stop] = scores
        return out

    def __repr__(self) -> str:
        return (
            f"QueryEngine(num_nodes={self.num_nodes}, dim={self.embedding_dim}, "
            f"max_batch={self.max_batch}, max_k={self.max_k}, "
            f"block_rows={self.block_rows})"
        )

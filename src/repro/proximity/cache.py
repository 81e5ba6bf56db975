"""Content-addressed caching of computed proximity matrices.

Every proximity measure in this package is a deterministic function of
``(graph, measure parameters, backend)``, so repeated sweeps — the ablation
grids, the table/figure reproductions, repeated evaluation runs — keep
recomputing matrices that cannot have changed.  :class:`ProximityCache`
memoises them behind a content key:

* the **graph fingerprint** — a SHA-256 over the node count and the sorted
  edge array.  Graphs in this package are immutable (mutation helpers like
  ``with_extra_edges`` return new instances), so a changed graph always has
  a different fingerprint and simply misses the cache; stale hits are
  structurally impossible.
* the **measure fingerprint** — class name plus public constructor
  parameters (:meth:`~repro.proximity.base.ProximityMeasure.fingerprint`).
* the **backend** ("sparse" or "dense") actually requested.

The cache has two tiers: a bounded in-memory LRU (for the hot loop of one
process) and an optional on-disk directory of ``.npz`` files (for repeated
experiment invocations).  Disk writes are atomic (tmp file + rename).
"""

from __future__ import annotations

import hashlib
import re
import time
import zipfile
from collections import OrderedDict
from pathlib import Path

import numpy as np
from scipy import sparse as _sp

from ..exceptions import ConfigurationError, ProximityError
from ..graph import Graph
from ..graph.graph import graph_content_fingerprint
from ..utils.fileio import atomic_write_path, tmp_file_pattern
from ..utils.logging import get_logger
from .base import ProximityMatrix, ProximityMeasure

__all__ = [
    "graph_fingerprint",
    "ProximityCache",
    "default_proximity_cache",
    "resolve_cache_policy",
]

_LOGGER = get_logger("proximity.cache")

#: the disk tier's own file naming: <graph fingerprint>-<key digest>.npz
_CACHE_FILE_PATTERN = re.compile(r"[0-9a-f]{32}-[0-9a-f]{32}\.npz")
#: in-flight temp files (.<stem>.<pid>-<hex>.npz) left behind by writers
#: that died between savez and the atomic rename
_TMP_FILE_PATTERN = tmp_file_pattern(r"[0-9a-f]{32}-[0-9a-f]{32}", ".npz")
#: a temp file younger than this may belong to a live concurrent writer
#: (stores take seconds); only older orphans are reaped by clear()
_TMP_REAP_AGE_SECONDS = 3600.0


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a graph: node count + canonical edge array.

    Delegates to the graph's memoized fingerprint when available so hot
    cache loops never re-hash a large edge array; the fallback covers
    duck-typed graph objects.
    """
    if hasattr(graph, "content_fingerprint"):
        return graph.content_fingerprint()
    return graph_content_fingerprint(graph.num_nodes, graph.edges)


class ProximityCache:
    """Two-tier (memory + optional disk) cache for :class:`ProximityMatrix`.

    Parameters
    ----------
    directory:
        Optional directory for the on-disk tier.  Created on first store;
        ``None`` keeps the cache purely in-memory.
    max_memory_items:
        Entry-count bound of the in-memory LRU tier.
    max_memory_bytes:
        Byte budget of the in-memory tier (default 1 GiB): large dense
        matrices would otherwise stay pinned for the process lifetime once
        cached.  Eviction is LRU; the most recent entry is always kept even
        when it alone exceeds the budget, so a hot loop over one oversized
        graph still hits.  After a one-shot embed of a very large graph,
        call :meth:`clear` on the (default) cache to release that last
        entry early — the next store would evict it anyway.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_memory_items: int = 16,
        max_memory_bytes: int = 1 << 30,
    ) -> None:
        if max_memory_items < 1:
            raise ProximityError(
                f"max_memory_items must be >= 1, got {max_memory_items}"
            )
        if max_memory_bytes < 1:
            raise ProximityError(
                f"max_memory_bytes must be >= 1, got {max_memory_bytes}"
            )
        self.directory = Path(directory) if directory is not None else None
        self.max_memory_items = int(max_memory_items)
        self.max_memory_bytes = int(max_memory_bytes)
        self._memory: OrderedDict[tuple[str, str, str], ProximityMatrix] = OrderedDict()
        # nbytes snapshot per entry at store time: a matrix can grow later
        # (lazy lookup keys), so eviction must subtract what was added
        self._entry_bytes: dict[tuple[str, str, str], int] = {}
        self._memory_bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------ #
    # keys
    # ------------------------------------------------------------------ #
    def cache_key(
        self, measure: ProximityMeasure, graph: Graph, sparse: bool | None = None
    ) -> tuple[str, str, str]:
        """The content key ``(graph hash, measure fingerprint, backend)``.

        The backend label comes from ``measure.resolve_backend`` — the same
        resolution :meth:`ProximityMeasure.compute` applies — so a cached
        entry always has the backend its key claims.
        """
        return (
            graph_fingerprint(graph),
            measure.fingerprint(),
            "sparse" if measure.resolve_backend(sparse) else "dense",
        )

    def _disk_path(self, key: tuple[str, str, str]) -> Path | None:
        if self.directory is None:
            return None
        digest = hashlib.sha256("|".join(key).encode()).hexdigest()[:32]
        # the graph hash prefixes the filename so invalidate() can glob it
        return self.directory / f"{key[0]}-{digest}.npz"

    # ------------------------------------------------------------------ #
    # lookup / store
    # ------------------------------------------------------------------ #
    def get(
        self, measure: ProximityMeasure, graph: Graph, sparse: bool | None = None
    ) -> ProximityMatrix | None:
        """Return the cached matrix or ``None`` (counts a hit/miss)."""
        return self._get_by_key(self.cache_key(measure, graph, sparse))

    def put(
        self,
        measure: ProximityMeasure,
        graph: Graph,
        matrix: ProximityMatrix,
        sparse: bool | None = None,
    ) -> None:
        """Store a computed matrix under its content key (memory + disk)."""
        self._put_by_key(self.cache_key(measure, graph, sparse), matrix)

    def get_or_compute(
        self, measure: ProximityMeasure, graph: Graph, sparse: bool | None = None
    ) -> ProximityMatrix:
        """Return the cached matrix, computing and storing it on a miss."""
        # one key computation per call: hashing every graph edge twice per
        # miss (get + put) would be pure wasted work on large graphs
        key = self.cache_key(measure, graph, sparse)
        cached = self._get_by_key(key)
        if cached is not None:
            return cached
        matrix = measure.compute(graph, sparse=sparse)
        self._put_by_key(key, matrix)
        return matrix

    def _get_by_key(self, key: tuple[str, str, str]) -> ProximityMatrix | None:
        if key in self._memory:
            self._memory.move_to_end(key)
            self.hits += 1
            return self._memory[key]
        path = self._disk_path(key)
        if path is not None and path.exists():
            try:
                matrix = _load_proximity(path)
            except FileNotFoundError:
                # another process invalidated/cleared between the existence
                # check and the read — degrade to a miss, don't crash
                matrix = None
            except (OSError, ValueError, KeyError, zipfile.BadZipFile, ProximityError):  # repro-lint: disable=RETRY001 -- a cache read that fails is a miss by design: the matrix is recomputed, which is strictly more reliable than re-reading a payload that just proved unreadable
                # corrupt/foreign/incompatible payload: drop it (best
                # effort) and recompute rather than killing the sweep
                matrix = None
                try:
                    path.unlink(missing_ok=True)
                except OSError:  # repro-lint: disable=RETRY001 -- best-effort eviction on e.g. a read-only volume: leaving the corrupt file behind is harmless (it re-misses), retrying the unlink is not
                    pass
            if matrix is not None:
                self._remember(key, matrix)
                self.hits += 1
                return matrix
        self.misses += 1
        return None

    def _put_by_key(self, key: tuple[str, str, str], matrix: ProximityMatrix) -> None:
        self._remember(key, matrix)
        path = self._disk_path(key)
        if path is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                _save_proximity(path, matrix)
            except OSError as exc:  # repro-lint: disable=RETRY001 -- the disk tier is best-effort by contract: the matrix is already served from memory, so a full/read-only volume degrades to a warning; retrying would stall the fit for a cache
                # full or read-only volume: the disk tier is best-effort —
                # the matrix is already served from memory, so log and go on
                _LOGGER.warning("proximity cache disk store failed for %s: %s", path, exc)
        self.stores += 1

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def invalidate(self, graph: Graph) -> int:
        """Drop every cached matrix of ``graph`` (any measure, any backend)."""
        fingerprint = graph_fingerprint(graph)
        stale = [key for key in self._memory if key[0] == fingerprint]
        for key in stale:
            self._memory.pop(key)
            self._memory_bytes -= self._entry_bytes.pop(key, 0)
        removed = len(stale)
        if self.directory is not None and self.directory.exists():
            for path in self.directory.glob(f"{fingerprint}-*.npz"):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:  # concurrent invalidate/clear won
                    pass
        return removed

    def clear(self) -> None:
        """Empty both tiers and reset the statistics.

        Only files matching this cache's own ``<graph>-<digest>.npz``
        naming are removed — a directory shared with other ``.npz``
        artifacts (saved embeddings, experiment outputs) is left alone.
        Orphaned temp files from crashed writers are reaped too, but only
        once they are old enough that no live writer can still own them.
        """
        self._memory.clear()
        self._entry_bytes.clear()
        self._memory_bytes = 0
        if self.directory is not None and self.directory.exists():
            now = time.time()
            for path in self.directory.glob("*.npz"):
                if _CACHE_FILE_PATTERN.fullmatch(path.name):
                    path.unlink(missing_ok=True)
                elif _TMP_FILE_PATTERN.fullmatch(path.name):
                    try:
                        if now - path.stat().st_mtime > _TMP_REAP_AGE_SECONDS:
                            path.unlink(missing_ok=True)
                    except FileNotFoundError:
                        pass
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        return (
            f"ProximityCache(items={len(self._memory)}, hits={self.hits}, "
            f"misses={self.misses}, directory={str(self.directory) if self.directory else None!r})"
        )

    # ------------------------------------------------------------------ #
    def _remember(self, key: tuple[str, str, str], matrix: ProximityMatrix) -> None:
        if self._memory.pop(key, None) is not None:
            self._memory_bytes -= self._entry_bytes.pop(key, 0)
        # hits share this one object, so freeze its buffers: an in-place
        # edit by one consumer must fail loudly, not corrupt later hits
        self._memory[key] = matrix.freeze()
        self._entry_bytes[key] = matrix.nbytes
        self._memory_bytes += self._entry_bytes[key]
        while len(self._memory) > 1 and (
            len(self._memory) > self.max_memory_items
            or self._memory_bytes > self.max_memory_bytes
        ):
            evicted_key, _ = self._memory.popitem(last=False)
            self._memory_bytes -= self._entry_bytes.pop(evicted_key, 0)


# ---------------------------------------------------------------------- #
# serialization
# ---------------------------------------------------------------------- #
def _save_proximity(path: Path, matrix: ProximityMatrix) -> None:
    # concurrent writers of the same key must not interleave into one file;
    # the shared helper writes a unique temp and publishes atomically
    with atomic_write_path(path) as tmp_path:
        if matrix.is_sparse:
            csr = matrix.sparse_matrix
            np.savez_compressed(
                tmp_path,
                kind="sparse",
                name=matrix.name,
                data=csr.data,
                indices=csr.indices,
                indptr=csr.indptr,
                shape=np.asarray(csr.shape, dtype=np.int64),
            )
        else:
            np.savez_compressed(tmp_path, kind="dense", name=matrix.name, matrix=matrix.matrix)


def _load_proximity(path: Path) -> ProximityMatrix:
    with np.load(path, allow_pickle=False) as payload:
        kind = str(payload["kind"])
        name = str(payload["name"])
        if kind == "sparse":
            shape = tuple(int(x) for x in payload["shape"])
            csr = _sp.csr_matrix(
                (payload["data"], payload["indices"], payload["indptr"]), shape=shape
            )
            return ProximityMatrix(csr, name=name)
        if kind == "dense":
            # np.load hands us a fresh array: freeze() need not copy it
            return ProximityMatrix(payload["matrix"], name=name, owned=True)
    raise ProximityError(f"unrecognised proximity cache payload kind {kind!r} in {path}")


# ---------------------------------------------------------------------- #
# process-wide default (used by the experiment runner)
# ---------------------------------------------------------------------- #
_DEFAULT_CACHE: ProximityCache | None = None


def default_proximity_cache() -> ProximityCache:
    """The process-wide in-memory cache shared by the experiment runner."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = ProximityCache()
    return _DEFAULT_CACHE


def resolve_cache_policy(policy) -> ProximityCache | None:
    """Resolve an explicit proximity-cache policy to a cache (or bypass).

    The contract is three-valued: ``"default"`` routes through the
    process-wide cache, ``"off"`` bypasses caching entirely (returns
    ``None``), and a :class:`ProximityCache` instance is used as-is.
    Anything else — ``None`` and booleans included — is rejected with
    :class:`~repro.exceptions.ConfigurationError`.
    """
    if isinstance(policy, ProximityCache):
        return policy
    if not isinstance(policy, str):  # bool/None must not match the str branches
        raise ConfigurationError(
            "proximity_cache must be 'default', 'off', or a ProximityCache instance; "
            f"got {policy!r}"
        )
    if policy == "default":
        return default_proximity_cache()
    if policy == "off":
        return None
    raise ConfigurationError(
        "proximity_cache must be 'default', 'off', or a ProximityCache instance; "
        f"got {policy!r}"
    )

"""Incremental proximity invalidation: decide what a delta actually dirties.

The proximity cache keys entries by content hash, so after a delta the old
graph's entries are never *wrong* — they are simply entries for a different
graph.  The real question is economic: which **rows** of the old matrix are
still byte-valid for the new graph, so a refresh can splice them instead of
recomputing everything?

The answer is each measure's *locality*.  For an edge flip on ``(u, v)``
a proximity entry ``(i, j)`` can only change if the computation of row ``i``
reads something that changed — and for local measures that reach is a
bounded graph distance from the touched endpoints, which the measure
declares itself through :meth:`~repro.proximity.base.ProximityMeasure.locality_radius`:

================================  =======================================
measure                           locality
================================  =======================================
common neighbors                  radius 1 (rows adjacent to an endpoint)
Adamic-Adar / resource alloc.     radius 1 (endpoint degrees only enter
                                  through common-neighbor weights)
Jaccard                           radius 2 (endpoint degree sits in the
                                  union denominator of two-hop rows)
degree (connected_only)           radius 1, plus a global rescale by
                                  ``peak_old / peak_new``
DeepWalk                          radius ``window_size`` (a T-step walk
                                  reads transition rows within distance
                                  T-1), plus a volume rescale
preferential attachment / Katz /  global — every row couples to every
personalized PageRank             edge (dense product / matrix inverse /
                                  linear solve); always a full recompute
================================  =======================================

Splicing needs the CSR backend, so a measure whose default backend is
dense (exact DeepWalk, ``truncation_threshold=0``) plans a full recompute
unless CSR is requested.

Affected rows are the union of the radius-``r`` BFS balls around the
delta's touched nodes in **both** the old and the new graph (a deleted
edge shrinks reach in the new graph but the old rows were computed with
it), plus any newly added nodes.  Everything else is reused verbatim, or
scaled by the measure's ``reused_row_scale``, and
:meth:`DeltaPlanner.refresh` splices reused rows and the measure's
``compute_rows`` block — the same sparse kernel run on the affected rows
only — into a matrix that matches a from-scratch ``measure.compute`` to
floating-point roundoff (only the rescale of reused rows can differ, by
~1 ulp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as _sp

from ..exceptions import GraphError
from ..graph import Graph
from ..proximity.base import ProximityMatrix, ProximityMeasure
from ..proximity.cache import ProximityCache
from .delta import EdgeDelta, apply_delta

__all__ = ["InvalidationPlan", "RefreshResult", "DeltaPlanner"]


@dataclass(frozen=True, eq=False)
class InvalidationPlan:
    """What a delta invalidates for one measure on one graph transition.

    ``scope == "rows"`` means the old cached matrix survives except for
    ``affected_rows`` (which must be recomputed) and a uniform
    ``row_scale`` on everything reused; ``scope == "full"`` means nothing
    survives and ``reason`` says why.
    """

    measure_fingerprint: str
    backend: str  # "sparse" | "dense"
    scope: str  # "rows" | "full"
    affected_rows: np.ndarray  # sorted int64 row ids (empty when scope == "full")
    num_rows: int  # node count of the *new* graph
    row_scale: float  # multiplier applied to reused rows (1.0 = verbatim)
    radius: int | None  # locality radius used, None when the measure is global
    reason: str

    @property
    def num_affected(self) -> int:
        """Rows that must be recomputed."""
        if self.scope == "full":
            return self.num_rows
        return int(self.affected_rows.shape[0])

    @property
    def num_reused(self) -> int:
        """Rows served verbatim (up to ``row_scale``) from the old matrix."""
        return self.num_rows - self.num_affected

    @property
    def reuse_fraction(self) -> float:
        return self.num_reused / self.num_rows if self.num_rows else 0.0

    def __repr__(self) -> str:
        if self.scope == "full":
            return f"InvalidationPlan(full recompute: {self.reason})"
        return (
            f"InvalidationPlan(rows: {self.num_affected}/{self.num_rows} recompute, "
            f"radius={self.radius}, scale={self.row_scale:.6g})"
        )


@dataclass(frozen=True, eq=False)
class RefreshResult:
    """Outcome of :meth:`DeltaPlanner.refresh`."""

    matrix: ProximityMatrix
    plan: InvalidationPlan
    #: "cache" (new graph already cached), "splice" (rows reused), or "full"
    source: str


# ---------------------------------------------------------------------- #
# affected-row discovery
# ---------------------------------------------------------------------- #
def _ball(graph: Graph, seeds: np.ndarray, radius: int) -> np.ndarray:
    """Boolean mask of nodes within BFS distance ``radius`` of any seed."""
    reached = seeds.copy()
    if radius <= 0 or not reached.any():
        return reached
    adjacency = graph.adjacency_matrix()
    frontier = reached.astype(np.float64)
    for _ in range(radius):
        frontier = adjacency @ frontier
        fresh = (frontier > 0) & ~reached
        if not fresh.any():
            break
        reached |= fresh
        frontier = fresh.astype(np.float64)
    return reached


def _affected_rows(
    old_graph: Graph, new_graph: Graph, delta: EdgeDelta, radius: int
) -> np.ndarray:
    n_old, n_new = old_graph.num_nodes, new_graph.num_nodes
    affected = np.zeros(n_new, dtype=bool)
    affected[n_old:] = True  # new nodes have no old row to reuse
    seeds = np.zeros(n_new, dtype=bool)
    seeds[delta.touched_nodes] = True
    # both graphs: a deleted edge shortens reach in the new graph, but the
    # old rows were computed *with* it — either ball can dirty a row
    affected[:n_old] |= _ball(old_graph, seeds[:n_old], radius)
    affected |= _ball(new_graph, seeds, radius)
    return np.nonzero(affected)[0].astype(np.int64)


# ---------------------------------------------------------------------- #
# planner
# ---------------------------------------------------------------------- #
class DeltaPlanner:
    """Plan and execute incremental proximity refreshes across a delta.

    Parameters
    ----------
    cache:
        Optional :class:`ProximityCache` consulted for the old graph's
        matrix and updated with the refreshed one.  Can also be supplied
        per-call to :meth:`refresh`.
    """

    def __init__(self, cache: ProximityCache | None = None) -> None:
        self.cache = cache

    # -------------------------------------------------------------- #
    def plan(
        self,
        graph: Graph,
        delta: EdgeDelta,
        measure: ProximityMeasure,
        *,
        new_graph: Graph | None = None,
        sparse: bool | None = None,
    ) -> InvalidationPlan:
        """Decide which rows of ``measure``'s matrix survive ``delta``.

        ``new_graph`` may be passed when ``apply_delta`` was already run;
        otherwise the delta is applied here (cheap, but not free).
        """
        new_graph = self._resolve_new_graph(graph, delta, new_graph)
        return self._plan(graph, delta, measure, new_graph, sparse)

    def refresh(
        self,
        graph: Graph,
        delta: EdgeDelta,
        measure: ProximityMeasure,
        *,
        new_graph: Graph | None = None,
        sparse: bool | None = None,
        old_matrix: ProximityMatrix | None = None,
        cache: ProximityCache | None = None,
    ) -> RefreshResult:
        """Produce ``measure``'s matrix for the post-delta graph.

        Reuses surviving rows of the old matrix (from ``old_matrix`` or the
        cache) when the plan allows, recomputing only the affected block;
        falls back to a full ``measure.compute`` otherwise.  The result is
        stored in the cache under the new graph's content key.
        """
        cache = cache if cache is not None else self.cache
        new_graph = self._resolve_new_graph(graph, delta, new_graph)
        plan = self._plan(graph, delta, measure, new_graph, sparse)
        key = cache.cache_key(measure, new_graph, sparse) if cache is not None else None
        if cache is not None and key is not None:
            hit = cache._get_by_key(key)
            if hit is not None:
                return RefreshResult(matrix=hit, plan=plan, source="cache")
        if old_matrix is None and cache is not None:
            old_matrix = cache.get(measure, graph, sparse)
        if (
            plan.scope == "rows"
            and plan.num_affected == 0
            and plan.row_scale == 1.0
            and old_matrix is not None
            and old_matrix.num_nodes == new_graph.num_nodes
        ):
            # empty delta: the old matrix is the new matrix, any backend
            if cache is not None and key is not None:
                cache._put_by_key(key, old_matrix)
            return RefreshResult(matrix=old_matrix, plan=plan, source="splice")
        if (
            plan.scope == "rows"
            and old_matrix is not None
            and old_matrix.is_sparse
            and old_matrix.num_nodes == graph.num_nodes
        ):
            matrix = self._splice(measure, new_graph, old_matrix, plan)
            source = "splice"
        else:
            matrix = measure.compute(new_graph, sparse=sparse)
            source = "full"
        if cache is not None and key is not None:
            cache._put_by_key(key, matrix)
        return RefreshResult(matrix=matrix, plan=plan, source=source)

    # -------------------------------------------------------------- #
    def _resolve_new_graph(
        self, graph: Graph, delta: EdgeDelta, new_graph: Graph | None
    ) -> Graph:
        if new_graph is None:
            return apply_delta(graph, delta)
        expected = graph.num_nodes if delta.num_nodes is None else delta.num_nodes
        if new_graph.num_nodes != expected:
            raise GraphError(
                f"new_graph has {new_graph.num_nodes} nodes but applying the delta "
                f"to {graph.name!r} yields {expected}"
            )
        return new_graph

    def _plan(
        self,
        graph: Graph,
        delta: EdgeDelta,
        measure: ProximityMeasure,
        new_graph: Graph,
        sparse: bool | None,
    ) -> InvalidationPlan:
        backend = "sparse" if measure.resolve_backend(sparse) else "dense"
        fingerprint = measure.fingerprint()
        n_new = new_graph.num_nodes

        def full(reason: str, radius: int | None = None) -> InvalidationPlan:
            return InvalidationPlan(
                measure_fingerprint=fingerprint,
                backend=backend,
                scope="full",
                affected_rows=np.empty(0, dtype=np.int64),
                num_rows=n_new,
                row_scale=1.0,
                radius=radius,
                reason=reason,
            )

        if delta.is_empty and new_graph.num_nodes == graph.num_nodes:
            return InvalidationPlan(
                measure_fingerprint=fingerprint,
                backend=backend,
                scope="rows",
                affected_rows=np.empty(0, dtype=np.int64),
                num_rows=n_new,
                row_scale=1.0,
                radius=0,
                reason="empty delta: every row survives",
            )
        radius = measure.locality_radius()
        if radius is None:
            return full("measure couples every row to every edge (global)")
        if backend != "sparse":
            return full("row splicing requires the CSR backend", radius)
        scale = measure.reused_row_scale(graph, new_graph)
        if not np.isfinite(scale) or scale <= 0:
            return full("reused-row rescale is undefined for this transition", radius)
        rows = _affected_rows(graph, new_graph, delta, radius)
        if rows.shape[0] >= n_new:
            return full("delta ball covers every row", radius)
        return InvalidationPlan(
            measure_fingerprint=fingerprint,
            backend=backend,
            scope="rows",
            affected_rows=rows,
            num_rows=n_new,
            row_scale=float(scale),
            radius=radius,
            reason=(
                f"radius-{radius} ball around {delta.touched_nodes.shape[0]} "
                "touched nodes"
            ),
        )

    def _splice(
        self,
        measure: ProximityMeasure,
        new_graph: Graph,
        old_matrix: ProximityMatrix,
        plan: InvalidationPlan,
    ) -> ProximityMatrix:
        n_new = new_graph.num_nodes
        rows = plan.affected_rows
        mask = np.zeros(n_new, dtype=bool)
        mask[rows] = True
        reused_rows = np.nonzero(~mask)[0]  # all < old node count by construction

        fresh = measure.compute_rows(new_graph, rows)

        old_csr = old_matrix.sparse_matrix
        reused = old_csr[reused_rows]
        # widen to the new node count (a grown graph appends columns; old
        # rows have no entries there) and apply the uniform rescale
        reused = _sp.csr_matrix(
            (reused.data * plan.row_scale, reused.indices, reused.indptr),
            shape=(reused.shape[0], n_new),
        )
        stacked = _sp.vstack([reused, fresh], format="csr")
        order = np.concatenate([reused_rows, rows])
        inverse = np.empty(n_new, dtype=np.int64)
        inverse[order] = np.arange(n_new, dtype=np.int64)
        return ProximityMatrix(stacked[inverse].tocsr(), name=measure.name)

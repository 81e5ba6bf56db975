"""Streaming graph subsystem: deltas, incremental invalidation, refits.

A live graph is modelled as a *lineage*: an initial :class:`~repro.Graph`
plus a chain of :class:`EdgeDelta` batches.  This package provides the
delta type and its strict incremental application (:func:`apply_delta`),
and the :class:`DeltaPlanner` that decides which cached proximity rows
survive a delta, from the locality each proximity measure declares
(``locality_radius``, ``reused_row_scale`` and ``compute_rows`` on
:class:`~repro.proximity.base.ProximityMeasure`; see
:mod:`repro.streaming.planner`).  Warm-start refits live on
:meth:`Embedder.fit <repro.models.base.Embedder.fit>` (``warm_start=``),
and the durable privacy record of a lineage lives in
:class:`~repro.privacy.ledger.PrivacyLedger`.
"""

from .delta import EdgeDelta, apply_delta
from .planner import DeltaPlanner, InvalidationPlan, RefreshResult

__all__ = [
    "EdgeDelta",
    "apply_delta",
    "DeltaPlanner",
    "InvalidationPlan",
    "RefreshResult",
]

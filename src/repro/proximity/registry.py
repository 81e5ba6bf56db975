"""Name-based registry of proximity measures.

Experiments reference proximities by name ("deepwalk", "degree", ...); this
registry maps those names to configured :class:`ProximityMeasure` instances.
:func:`compute_proximity` is the cached front door: it instantiates (or
accepts) a measure and routes the computation through a
:class:`~repro.proximity.cache.ProximityCache`, so sweeps that revisit the
same graph/measure combination never recompute the matrix.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..exceptions import ProximityError
from ..graph import Graph
from .base import ProximityMatrix, ProximityMeasure
from .cache import ProximityCache, default_proximity_cache
from .degree import DegreeProximity
from .first_order import (
    CommonNeighborsProximity,
    JaccardProximity,
    PreferentialAttachmentProximity,
)
from .high_order import DeepWalkProximity, KatzProximity, PersonalizedPageRankProximity
from .second_order import AdamicAdarProximity, ResourceAllocationProximity

__all__ = [
    "available_proximities",
    "get_proximity",
    "compute_proximity",
]

_REGISTRY: dict[str, Callable[..., ProximityMeasure]] = {
    "common_neighbors": CommonNeighborsProximity,
    "preferential_attachment": PreferentialAttachmentProximity,
    "jaccard": JaccardProximity,
    "adamic_adar": AdamicAdarProximity,
    "resource_allocation": ResourceAllocationProximity,
    "katz": KatzProximity,
    "ppr": PersonalizedPageRankProximity,
    "deepwalk": DeepWalkProximity,
    "degree": DegreeProximity,
}


def available_proximities() -> list[str]:
    """Return the sorted list of registered proximity names."""
    return sorted(_REGISTRY)


def get_proximity(name: str, **kwargs: Any) -> ProximityMeasure:
    """Instantiate a proximity measure by registry name.

    Extra keyword arguments are forwarded to the measure's constructor, e.g.
    ``get_proximity("deepwalk", window_size=10)``.
    """
    key = name.strip().lower()
    if key not in _REGISTRY:
        raise ProximityError(
            f"unknown proximity {name!r}; available: {', '.join(available_proximities())}"
        )
    return _REGISTRY[key](**kwargs)


def compute_proximity(
    measure: str | ProximityMeasure,
    graph: Graph,
    *,
    cache: ProximityCache | None = None,
    sparse: bool | None = None,
    **kwargs: Any,
) -> ProximityMatrix:
    """Compute a proximity matrix through the cache.

    ``measure`` is either a registry name (extra ``kwargs`` configure the
    measure, e.g. ``compute_proximity("deepwalk", g, window_size=10)``) or a
    ready :class:`ProximityMeasure` instance.  ``cache=None`` uses the
    process-wide default cache; pass an explicit :class:`ProximityCache` for
    disk persistence or isolation.
    """
    if isinstance(measure, ProximityMeasure):
        if kwargs:
            raise ProximityError(
                "keyword arguments are only accepted when measure is a registry name"
            )
    else:
        measure = get_proximity(measure, **kwargs)
    cache = default_proximity_cache() if cache is None else cache
    return cache.get_or_compute(measure, graph, sparse=sparse)

"""Unified estimator API: the :class:`Embedder` protocol + method registry.

Every method of the paper's evaluation is one registry entry and one
estimator shape::

    from repro.models import Embedder, get_method

    model = get_method("se_privgemb_dw").build(training, privacy, seed=0)
    model.fit(graph)
    model.embeddings_          # |V| × r matrix
    model.result_.privacy_spent
    model.save("model.npz")
    Embedder.load("model.npz") # bit-identical embeddings_

See :mod:`repro.models.base` for the protocol, :mod:`repro.models.registry`
for the declarative :class:`MethodSpec` registry, and
:mod:`repro.models.artifacts` for the ``.npz`` + JSON artifact layout.
"""

from .artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    load_artifact,
    peek_artifact,
    save_artifact,
)
from .base import Embedder, FitResult, WarmStart
from .registry import (
    MethodSpec,
    available_methods,
    get_method,
    register,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "Embedder",
    "FitResult",
    "MethodSpec",
    "available_methods",
    "get_method",
    "load_artifact",
    "peek_artifact",
    "register",
    "save_artifact",
    "WarmStart",
]

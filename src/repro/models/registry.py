"""Declarative registry of embedding methods.

A method is described, not dispatched: a :class:`MethodSpec` names the
estimator class (as a lazily-imported ``"module:QualName"`` path, so the
registry itself never creates import cycles and stays picklable), the
proximity factory the method consumes, its default perturbation strategy
and whether it spends privacy budget.  The eight paper methods are
registered at import time; new methods — new proximities, new baselines,
serving-only wrappers — become registry entries instead of new branches in
an if-chain:

>>> from repro.models import get_method, available_methods, register, MethodSpec
>>> model = get_method("se_privgemb_dw").build(seed=0).fit(graph)
>>> register(MethodSpec(name="se_gemb_katz",
...                     embedder="repro.embedding.trainer:SEGEmbTrainer",
...                     proximity="katz"))

This replaces the old ``METHOD_NAMES`` tuple and the ``_dw`` / ``_deg``
string-suffix parsing: everything the experiment stack used to infer from
a method's *name* (its proximity, its privacy flag, its grouping key) is
now a structured field, and :meth:`MethodSpec.fingerprint` gives sweeps a
content address over the method *definition* rather than its label.
"""

from __future__ import annotations

import difflib
import hashlib
import importlib
import json
from dataclasses import dataclass, replace
from typing import Any, TYPE_CHECKING

import numpy as np

from ..config import PrivacyConfig, TrainingConfig
from ..exceptions import ConfigurationError
from ..proximity import get_proximity
from ..proximity.base import ProximityMeasure

if TYPE_CHECKING:
    from .base import Embedder

__all__ = [
    "MethodSpec",
    "available_methods",
    "get_method",
    "register",
]

_REGISTRY: dict[str, "MethodSpec"] = {}
_ALIASES: dict[str, str] = {}
_EMBEDDER_CLASS_CACHE: dict[str, type] = {}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("-", "_")


def _resolve_embedder_class(path: str) -> type["Embedder"]:
    """Import ``"module:QualName"`` and check it is an :class:`Embedder`."""
    cached = _EMBEDDER_CLASS_CACHE.get(path)
    if cached is not None:
        return cached
    module_name, _, qualname = path.partition(":")
    if not module_name or not qualname:
        raise ConfigurationError(
            f"embedder path {path!r} must look like 'package.module:ClassName'"
        )
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(f"cannot import embedder module {module_name!r}: {exc}") from exc
    for attr in qualname.split("."):
        try:
            obj = getattr(obj, attr)
        except AttributeError as exc:
            raise ConfigurationError(
                f"module {module_name!r} has no attribute {qualname!r}"
            ) from exc
    from .base import Embedder

    if not (isinstance(obj, type) and issubclass(obj, Embedder)):
        raise ConfigurationError(f"{path!r} does not name an Embedder subclass")
    _EMBEDDER_CLASS_CACHE[path] = obj
    return obj


@dataclass(frozen=True)
class MethodSpec:
    """Declarative description of one embedding method.

    Attributes
    ----------
    name:
        Registry key (normalised to lowercase ``snake_case``).
    embedder:
        ``"module:QualName"`` path of the :class:`~repro.models.Embedder`
        subclass, imported lazily on first :meth:`build`.
    private:
        Whether the method consumes the (ε, δ) privacy budget.
    proximity:
        Name of the proximity measure the method's structure preference
        uses (resolved through :func:`repro.proximity.get_proximity`), or
        ``None`` for methods without one (the DP baselines).
    proximity_params:
        Sorted ``(name, value)`` constructor defaults for the proximity
        measure (e.g. the DeepWalk window size).
    perturbation:
        Default perturbation strategy name for private SE methods
        (``"nonzero"`` / ``"naive"``), ``None`` where not applicable.
    description:
        One-line human description (shown by CLI listings).
    """

    name: str
    embedder: str
    private: bool = False
    proximity: str | None = None
    proximity_params: tuple[tuple[str, Any], ...] = ()
    perturbation: str | None = None
    description: str = ""

    # ------------------------------------------------------------------ #
    def embedder_class(self) -> type["Embedder"]:
        """The estimator class (imported lazily and cached)."""
        return _resolve_embedder_class(self.embedder)

    def make_proximity(
        self, *, deepwalk_window: int | None = None, **overrides: Any
    ) -> ProximityMeasure | None:
        """Instantiate the method's proximity measure (``None`` if it has none).

        ``deepwalk_window`` is the experiment-level knob for the window
        size ``T``; it only applies to specs whose proximity is the
        truncated DeepWalk measure, exactly as the old ``*_dw`` suffix
        convention behaved.
        """
        if self.proximity is None:
            return None
        params = dict(self.proximity_params)
        if deepwalk_window is not None and self.proximity == "deepwalk":
            params["window_size"] = int(deepwalk_window)
        params.update(overrides)
        return get_proximity(self.proximity, **params)

    def build(
        self,
        training: TrainingConfig | None = None,
        privacy: PrivacyConfig | None = None,
        *,
        perturbation: str | None = None,
        deepwalk_window: int | None = None,
        proximity_cache: Any = "default",
        seed: int | np.random.Generator | np.random.SeedSequence | None = None,
        **overrides: Any,
    ) -> "Embedder":
        """Construct an unfitted estimator for this method.

        ``perturbation=None`` falls back to the spec default; extra keyword
        arguments are forwarded to the estimator constructor (e.g.
        ``negative_sampling="unigram"`` for SE-GEmb, ``num_hops=`` for GAP).
        """
        measure = self.make_proximity(deepwalk_window=deepwalk_window)
        cls = self.embedder_class()
        model = cls.from_method_spec(
            self,
            training=training,
            privacy=privacy,
            perturbation=perturbation if perturbation is not None else self.perturbation,
            proximity=measure,
            proximity_cache=proximity_cache,
            seed=seed,
            **overrides,
        )
        # remember the non-default build knobs so Embedder.load can replay
        # them: a reloaded estimator must be *configured* like the saved one
        # (hidden_dim, deepwalk_window, ...), not just carry its arrays
        build_overrides = dict(overrides)
        if deepwalk_window is not None:
            build_overrides["deepwalk_window"] = int(deepwalk_window)
        model._build_overrides = build_overrides
        return model

    # ------------------------------------------------------------------ #
    def fingerprint_payload(self) -> dict[str, Any]:
        """Canonical JSON-able form of everything that defines the method.

        Experiment cells hash this instead of the method *name*, so a
        re-registered method with different semantics invalidates stored
        results instead of silently reusing them.
        """
        return {
            "name": self.name,
            "embedder": self.embedder,
            "private": self.private,
            "proximity": self.proximity,
            "proximity_params": [[key, value] for key, value in self.proximity_params],
            "perturbation": self.perturbation,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical payload — the method's content address."""
        canonical = json.dumps(
            self.fingerprint_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


# --------------------------------------------------------------------- #
# registry operations
# --------------------------------------------------------------------- #
def register(
    spec: MethodSpec, *, aliases: tuple[str, ...] = (), overwrite: bool = False
) -> MethodSpec:
    """Register a method spec (and optional aliases) under its name.

    Returns the (name-normalised) spec actually stored.  Registering an
    existing name without ``overwrite=True`` is an error — accidental
    shadowing of a paper method would silently change every sweep that
    references it.
    """
    key = _normalize(spec.name)
    if not key:
        raise ConfigurationError("method name must be non-empty")
    stored = spec if spec.name == key else replace(spec, name=key)
    alias_keys = [a for a in (_normalize(alias) for alias in aliases) if a != key]
    if not overwrite:
        # aliases are resolved before registry names in get_method, so an
        # unchecked alias would silently hijack an existing method
        taken = [
            name for name in [key, *alias_keys] if name in _REGISTRY or name in _ALIASES
        ]
        if taken:
            raise ConfigurationError(
                f"method name(s)/alias(es) {', '.join(repr(t) for t in taken)} are "
                "already registered; pass overwrite=True to replace them"
            )
    _REGISTRY[key] = stored
    for alias_key in alias_keys:
        _ALIASES[alias_key] = key
    return stored


def available_methods() -> tuple[str, ...]:
    """Registered method names, in registration (paper) order."""
    return tuple(_REGISTRY)


def get_method(name: str) -> MethodSpec:
    """Look up a method spec by name or alias.

    Unknown names raise :class:`~repro.exceptions.ConfigurationError`
    listing every available method and, when one is close enough, a
    did-you-mean hint.
    """
    if isinstance(name, MethodSpec):
        return name
    key = _normalize(str(name))
    # canonical names win over aliases: an alias can never shadow a method
    spec = _REGISTRY.get(key) or _REGISTRY.get(_ALIASES.get(key, key))
    if spec is None:
        candidates = list(_REGISTRY) + list(_ALIASES)
        close = difflib.get_close_matches(key, candidates, n=1, cutoff=0.6)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ConfigurationError(
            f"unknown method {name!r}{hint} "
            f"(available: {', '.join(available_methods())})"
        )
    return spec


# --------------------------------------------------------------------- #
# the eight methods of the paper's evaluation
# --------------------------------------------------------------------- #
register(
    MethodSpec(
        name="se_privgemb_dw",
        embedder="repro.embedding.private_trainer:SEPrivGEmbTrainer",
        private=True,
        proximity="deepwalk",
        proximity_params=(("window_size", 5),),
        perturbation="nonzero",
        description="SE-PrivGEmb with the truncated-DeepWalk structure preference",
    ),
    aliases=("se_privgemb_deepwalk",),
)
register(
    MethodSpec(
        name="se_privgemb_deg",
        embedder="repro.embedding.private_trainer:SEPrivGEmbTrainer",
        private=True,
        proximity="degree",
        perturbation="nonzero",
        description="SE-PrivGEmb with the degree structure preference",
    ),
    aliases=("se_privgemb_degree",),
)
register(
    MethodSpec(
        name="se_gemb_dw",
        embedder="repro.embedding.trainer:SEGEmbTrainer",
        proximity="deepwalk",
        proximity_params=(("window_size", 5),),
        description="Non-private SE-GEmb upper bound (DeepWalk preference)",
    ),
    aliases=("se_gemb_deepwalk",),
)
register(
    MethodSpec(
        name="se_gemb_deg",
        embedder="repro.embedding.trainer:SEGEmbTrainer",
        proximity="degree",
        description="Non-private SE-GEmb upper bound (degree preference)",
    ),
    aliases=("se_gemb_degree",),
)
register(
    MethodSpec(
        name="dpggan",
        embedder="repro.baselines.dpggan:DPGGAN",
        private=True,
        description="DP graph GAN baseline (DPSGD discriminator + Moments Accountant)",
    )
)
register(
    MethodSpec(
        name="dpgvae",
        embedder="repro.baselines.dpgvae:DPGVAE",
        private=True,
        description="DP graph VAE baseline (DPSGD encoder + output privatisation)",
    )
)
register(
    MethodSpec(
        name="gap",
        embedder="repro.baselines.gap:GAP",
        private=True,
        description="Aggregation-perturbation GNN baseline",
    )
)
register(
    MethodSpec(
        name="progap",
        embedder="repro.baselines.progap:ProGAP",
        private=True,
        description="Progressive aggregation-perturbation GNN baseline",
    )
)

"""The :class:`Embedder` estimator protocol shared by every method.

The paper evaluates eight methods — SE-PrivGEmb / SE-GEmb with two
structure preferences plus four DP baselines — as interchangeable
"graph → |V| × r embedding under a budget" boxes.  This module is that box
as code: one estimator shape with

* ``fit(graph, *, rng=None) -> self`` — train on a graph (the graph is a
  ``fit`` argument, never constructor state, so one configured estimator
  can be fitted to many graphs),
* ``embeddings_`` — the trained ``|V| × r`` matrix,
* ``result_`` — a :class:`FitResult` with the per-epoch losses and, for
  private methods, the :class:`~repro.privacy.accountant.PrivacySpent`,
* ``save(path)`` / ``Embedder.load(path)`` — round-trip the fitted state
  through a single ``.npz`` + JSON artifact (see
  :mod:`repro.models.artifacts`) carrying the method spec, configurations,
  dataset fingerprint, proximity fingerprint and budget spent.

Concrete estimators implement ``_fit`` and are built declaratively through
the method registry (:mod:`repro.models.registry`):

>>> from repro.models import Embedder, get_method
>>> model = get_method("se_privgemb_dw").build(seed=0).fit(graph)
>>> model.save("model.npz")
>>> reloaded = Embedder.load("model.npz")  # bit-identical embeddings_
"""

from __future__ import annotations

import abc
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, TYPE_CHECKING

import numpy as np

from ..config import PrivacyConfig, TrainingConfig
from ..exceptions import ArtifactError, ConfigurationError, PrivacyError, TrainingError
from ..graph import Graph
from ..privacy.accountant import PrivacySpent
from ..utils.rng import ensure_rng
from .artifacts import load_artifact, save_artifact

if TYPE_CHECKING:  # registry imports embedders lazily; avoid the cycle here
    from ..privacy.ledger import PrivacyLedger
    from ..serving.engine import QueryEngine
    from .registry import MethodSpec

__all__ = ["Embedder", "FitResult", "WarmStart"]


@dataclass(frozen=True)
class WarmStart:
    """Resolved warm-start state: prior matrices to seed a refit from.

    Built by :meth:`Embedder.fit` from either a saved artifact path or a
    fitted estimator; consumed by trainers that set
    ``_supports_warm_start`` (they copy rows ``[0, min(n_new, num_nodes))``
    into the freshly initialised model, so new nodes keep their pinned
    fresh init and removed trailing nodes are dropped).
    """

    embeddings: np.ndarray
    context_embeddings: np.ndarray | None
    method: str | None
    dataset_fingerprint: str | None
    source: str  # description for metadata: the path or "estimator"

    @property
    def num_nodes(self) -> int:
        return int(self.embeddings.shape[0])

    @property
    def embedding_dim(self) -> int:
        return int(self.embeddings.shape[1])


@dataclass
class FitResult:
    """Outcome of one :meth:`Embedder.fit` call.

    ``privacy_spent`` is ``None`` for non-private methods; for private ones
    it records the budget consumed (which post-processing — evaluation,
    persistence, serving — inherits for free by Theorem 2).  The SE
    trainers snapshot their RDP accountant; the calibrated one-shot
    baselines report their configured target (their noise is calibrated so
    the whole release meets it) with ``best_alpha = steps = 0`` standing
    for "no per-step accountant curve".
    """

    losses: list[float] = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False
    privacy_spent: PrivacySpent | None = None

    @property
    def final_loss(self) -> float:
        """Loss of the last completed epoch (NaN if none were recorded)."""
        return self.losses[-1] if self.losses else float("nan")

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form stored inside model artifacts."""
        spent = self.privacy_spent
        return {
            "losses": [float(value) for value in self.losses],
            "epochs_run": int(self.epochs_run),
            "stopped_early": bool(self.stopped_early),
            "privacy_spent": None
            if spent is None
            else {
                "epsilon": float(spent.epsilon),
                "delta": float(spent.delta),
                "best_alpha": float(spent.best_alpha),
                "steps": int(spent.steps),
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FitResult":
        """Rebuild a result from its artifact form."""
        spent = payload.get("privacy_spent")
        return cls(
            losses=[float(value) for value in payload.get("losses", [])],
            epochs_run=int(payload.get("epochs_run", 0)),
            stopped_early=bool(payload.get("stopped_early", False)),
            privacy_spent=None if spent is None else PrivacySpent(**spent),
        )


class Embedder(abc.ABC):
    """Base class of every embedding method (trainers and baselines alike).

    Subclasses implement :meth:`_fit`, which must assign
    ``self._embeddings`` (and optionally ``self._context_embeddings`` /
    ``self._proximity_fingerprint``) and return a :class:`FitResult`.
    Everything else — fitted-state bookkeeping, ``fit_transform``,
    artifact persistence — lives here once.
    """

    #: trainers that can seed their matrices from a prior artifact set this
    _supports_warm_start: bool = False
    #: private trainers that can record into a persistent ledger set this
    _supports_ledger: bool = False

    def __init__(self) -> None:
        self._spec: "MethodSpec | None" = getattr(self, "_spec", None)
        #: non-default build() kwargs, stamped by MethodSpec.build so
        #: artifacts can replay them on load
        self._build_overrides: dict[str, Any] = getattr(self, "_build_overrides", {})
        self._embeddings: np.ndarray | None = None
        self._context_embeddings: np.ndarray | None = None
        self._result: FitResult | None = None
        self._dataset_fingerprint: str | None = None
        self._proximity_fingerprint: str | None = None
        #: resolved WarmStart for the fit in flight (trainers consume it)
        self._pending_warm_start: WarmStart | None = None
        #: ledger bound to the fit in flight (private trainers consume it)
        self._active_ledger: "PrivacyLedger | None" = None
        #: provenance of the last applied warm start (for artifact metadata)
        self._last_warm_start: dict[str, Any] | None = None

    # ------------------------------------------------------------------ #
    # the estimator surface
    # ------------------------------------------------------------------ #
    def fit(
        self, graph: Graph, *, rng=None, warm_start=None, ledger=None, **fit_params
    ) -> "Embedder":
        """Train on ``graph`` and return ``self``.

        ``rng`` (seed, ``Generator`` or ``SeedSequence``) overrides the
        seed given at construction for this fit only.  ``warm_start``
        (a saved artifact path or a fitted estimator) seeds the embedding
        matrices from a prior fit — rows shared with the old node set are
        copied, new nodes keep their pinned fresh initialisation.
        ``ledger`` (a :class:`~repro.privacy.PrivacyLedger`) makes a
        private fit check admission against, and record its spend into,
        a durable budget lineage.  Extra keyword arguments are forwarded
        to the concrete ``_fit`` (e.g. the SE trainers accept a
        precomputed ``proximity=`` matrix).
        """
        if not isinstance(graph, Graph):
            raise ConfigurationError(
                f"fit expects a repro.Graph, got {type(graph).__name__}"
            )
        if warm_start is not None and not self._supports_warm_start:
            raise ConfigurationError(
                f"{type(self).__name__} does not support warm_start (only the "
                "skip-gram trainers seed from prior embeddings)"
            )
        if ledger is not None and not self._supports_ledger:
            raise ConfigurationError(
                f"{type(self).__name__} does not support a privacy ledger (only "
                "private trainers with a per-step accountant record into one)"
            )
        if ledger is not None:
            head = ledger.dataset_fingerprint
            if head is not None and head != graph.content_fingerprint():
                raise PrivacyError(
                    f"graph {graph.content_fingerprint()} is not the ledger's "
                    f"lineage head {head}; record the connecting delta(s) with "
                    "ledger.record_delta first"
                )
        generator = ensure_rng(rng) if rng is not None else self._fit_rng()
        self._embeddings = None
        self._context_embeddings = None
        self._result = None
        self._last_warm_start = None
        self._pending_warm_start = (
            self._resolve_warm_start(warm_start) if warm_start is not None else None
        )
        self._active_ledger = ledger
        try:
            result = self._fit(graph, generator, **fit_params)
        finally:
            self._pending_warm_start = None
            self._active_ledger = None
        if self._embeddings is None:
            raise TrainingError(
                f"{type(self).__name__}._fit completed without producing embeddings"
            )
        self._result = result
        self._dataset_fingerprint = graph.content_fingerprint()
        return self

    def _resolve_warm_start(self, source) -> WarmStart:
        """Normalise a warm-start argument to a :class:`WarmStart`.

        Accepts a saved artifact path (loaded through :meth:`load`, which
        already rejects spec drift) or a fitted estimator.  The embedding
        dimension must match this estimator's configuration; a different
        *method* only warns — cross-method seeding is legitimate (e.g.
        seeding a private refit from a non-private base fit) but worth
        flagging.
        """
        if isinstance(source, (str, Path)):
            donor = Embedder.load(source)
            label = str(source)
        elif isinstance(source, Embedder):
            source._check_fitted()
            source._check_spec_current()
            donor = source
            label = "estimator"
        else:
            raise ConfigurationError(
                "warm_start must be a saved artifact path or a fitted Embedder, "
                f"got {type(source).__name__}"
            )
        embeddings = np.asarray(donor._embeddings)
        context = donor._context_embeddings
        training = getattr(self, "training_config", None)
        if training is not None and embeddings.shape[1] != training.embedding_dim:
            raise ConfigurationError(
                f"warm-start embeddings have dimension {embeddings.shape[1]} but "
                f"this estimator is configured for {training.embedding_dim}"
            )
        donor_method = donor._spec.name if donor._spec is not None else None
        own_method = self._spec.name if self._spec is not None else None
        if donor_method is not None and own_method is not None and donor_method != own_method:
            warnings.warn(
                f"warm-starting a {own_method!r} fit from a {donor_method!r} "
                "artifact; embedding geometries may differ",
                RuntimeWarning,
                stacklevel=3,
            )
        return WarmStart(
            embeddings=embeddings,
            context_embeddings=np.asarray(context) if context is not None else None,
            method=donor_method,
            dataset_fingerprint=donor._dataset_fingerprint,
            source=label,
        )

    def fit_transform(self, graph: Graph, *, rng=None, **fit_params) -> np.ndarray:
        """:meth:`fit`, then return :attr:`embeddings_` (scikit-learn shape)."""
        return self.fit(graph, rng=rng, **fit_params).embeddings_

    def transform(self) -> np.ndarray:
        """Return the fitted embeddings (embeddings are transductive here)."""
        return self.embeddings_

    @abc.abstractmethod
    def _fit(self, graph: Graph, rng: np.random.Generator, **fit_params) -> FitResult:
        """Train on ``graph``; set ``self._embeddings`` and return the result."""

    def _fit_rng(self) -> np.random.Generator:
        """Generator used when :meth:`fit` is called without ``rng``."""
        return ensure_rng(getattr(self, "_seed", None))

    # ------------------------------------------------------------------ #
    # fitted state
    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if self._result is None or self._embeddings is None:
            raise TrainingError(
                f"{type(self).__name__} is not fitted yet; call fit(graph) first"
            )

    @property
    def is_fitted_(self) -> bool:
        """``True`` once :meth:`fit` (or a :meth:`load`) has completed."""
        return self._result is not None and self._embeddings is not None

    @property
    def embeddings_(self) -> np.ndarray:
        """The trained ``|V| × r`` embedding matrix."""
        self._check_fitted()
        return self._embeddings

    @property
    def context_embeddings_(self) -> np.ndarray | None:
        """The context (``W_out``) matrix, when the method has one."""
        self._check_fitted()
        return self._context_embeddings

    @property
    def result_(self) -> FitResult:
        """Losses, epochs run and privacy spent of the last fit."""
        self._check_fitted()
        return self._result

    @property
    def dataset_fingerprint_(self) -> str | None:
        """Content fingerprint of the graph the model was fitted on."""
        self._check_fitted()
        return self._dataset_fingerprint

    @property
    def proximity_fingerprint_(self) -> str | None:
        """Fingerprint of the proximity configuration (SE methods only)."""
        self._check_fitted()
        return self._proximity_fingerprint

    @property
    def spec(self) -> "MethodSpec | None":
        """The registry spec this estimator was built from (if any)."""
        return self._spec

    # ------------------------------------------------------------------ #
    # registry integration
    # ------------------------------------------------------------------ #
    @classmethod
    def from_method_spec(
        cls,
        spec: "MethodSpec",
        *,
        training: TrainingConfig | None = None,
        privacy: PrivacyConfig | None = None,
        perturbation=None,
        proximity=None,
        proximity_cache="default",
        seed=None,
        **kwargs,
    ) -> "Embedder":
        """Instantiate this estimator for a registry spec.

        The default maps onto the baseline constructor shape
        (``training_config`` / ``privacy_config`` / ``seed``) and ignores
        ``perturbation`` — the SE trainers override this to consume their
        proximity measure, cache policy and perturbation strategy.
        """
        if proximity is not None:
            raise ConfigurationError(
                f"method {spec.name!r} does not take a proximity measure"
            )
        model = cls(training_config=training, privacy_config=privacy, seed=seed, **kwargs)
        model._spec = spec
        return model

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def _metadata(self) -> dict[str, Any]:
        """Method-specific artifact metadata; subclasses extend."""
        meta: dict[str, Any] = {}
        training = getattr(self, "training_config", None)
        if training is not None:
            meta["training"] = training.to_dict()
        privacy = getattr(self, "privacy_config", None)
        if privacy is not None:
            meta["privacy"] = privacy.to_dict()
        if self._last_warm_start is not None:
            meta["warm_start"] = dict(self._last_warm_start)
        return meta

    def _build_options(self) -> dict[str, Any]:
        """Build-time overrides :meth:`load` must replay.

        The base implementation returns whatever non-default kwargs
        :meth:`MethodSpec.build` recorded (e.g. ``hidden_dim`` for the
        GAN/VAE baselines, ``deepwalk_window`` for the SE methods);
        subclasses merge in anything they track themselves.
        """
        return dict(self._build_overrides)

    def _artifact_metadata(self) -> dict[str, Any]:
        """The full metadata document persisted with this fitted model.

        Shared by :meth:`save` (npz artifacts) and the serving exporter
        (:func:`repro.serving.store.export_servable`), so both carriers
        describe the model identically — method spec, fingerprints,
        result, build options.
        """
        self._check_fitted()
        cls = type(self)
        metadata: dict[str, Any] = {
            "embedder": f"{cls.__module__}:{cls.__qualname__}",
            "method": self._spec.name if self._spec is not None else None,
            "method_spec": self._spec.fingerprint_payload() if self._spec is not None else None,
            "dataset_fingerprint": self._dataset_fingerprint,
            "proximity_fingerprint": self._proximity_fingerprint,
            "result": self._result.to_dict(),
            "build_options": self._build_options(),
            **self._metadata(),
        }
        from .. import __version__

        metadata["repro_version"] = __version__
        return metadata

    def save(self, path: str | Path) -> Path:
        """Persist the fitted model as one ``.npz`` + JSON artifact."""
        metadata = self._artifact_metadata()
        arrays = {"embeddings": np.asarray(self._embeddings)}
        if self._context_embeddings is not None:
            arrays["context_embeddings"] = np.asarray(self._context_embeddings)
        return save_artifact(path, arrays, metadata)

    def _restore(self, arrays: dict[str, np.ndarray], metadata: dict[str, Any]) -> None:
        """Install persisted fitted state (no retraining)."""
        self._embeddings = np.asarray(arrays["embeddings"])
        context = arrays.get("context_embeddings")
        self._context_embeddings = np.asarray(context) if context is not None else None
        self._result = FitResult.from_dict(metadata.get("result") or {})
        self._dataset_fingerprint = metadata.get("dataset_fingerprint")
        self._proximity_fingerprint = metadata.get("proximity_fingerprint")

    @classmethod
    def load(cls, path: str | Path) -> "Embedder":
        """Reconstruct a fitted estimator from a saved artifact.

        The artifact's method name is resolved through the registry and its
        stored spec payload is checked against the current registration, so
        an artifact saved under a since-changed method definition fails
        loudly instead of silently impersonating the new one.  Calling
        ``load`` on a concrete subclass additionally asserts the artifact
        holds that type: ``SEPrivGEmbTrainer.load`` refuses a GAP artifact.
        """
        arrays, metadata = load_artifact(path)
        if "embeddings" not in arrays:
            raise ArtifactError(f"{path} has no embeddings array")
        method = metadata.get("method")
        if not method:
            raise ArtifactError(
                f"{path} was saved without a registered method name and cannot be "
                "reconstructed; re-save it from a registry-built estimator"
            )
        from .registry import get_method

        spec = get_method(method)
        stored = metadata.get("method_spec")
        if stored is not None and stored != spec.fingerprint_payload():
            raise ArtifactError(
                f"{path} was saved under a different registration of method "
                f"{method!r}; the artifact is stale relative to the current registry"
            )
        training = (
            TrainingConfig(**metadata["training"]) if metadata.get("training") else None
        )
        privacy_fields = dict(metadata.get("privacy") or {})
        options = dict(metadata.get("build_options") or {})
        # older artifacts record fields that no longer choose anything:
        # fast_path=True names the workspace step that is now the only step,
        # accountant="rdp" named the one accountant there is, and a
        # multi-worker fit's "workers" count names a training pool that is
        # gone (the published matrices load the same either way)
        options.pop("fast_path", None)
        options.pop("workers", None)
        privacy_fields.pop("accountant", None)
        privacy = PrivacyConfig(**privacy_fields) if privacy_fields else None
        model = spec.build(
            training=training,
            privacy=privacy,
            perturbation=metadata.get("perturbation"),
            **options,
        )
        if not isinstance(model, cls):
            raise ArtifactError(
                f"{path} holds a {type(model).__name__} artifact, not {cls.__name__}; "
                f"load it via {type(model).__name__}.load or Embedder.load"
            )
        model._restore(arrays, metadata)
        return model

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def _check_spec_current(self) -> None:
        """Refuse serving when this model's method registration has drifted.

        ``load`` already rejects stale artifacts, but a long-lived fitted
        estimator can outlive a re-registration in the same process — the
        serving entry points re-check before handing out query engines.
        """
        if self._spec is None:
            return
        from .registry import get_method

        try:
            current = get_method(self._spec.name)
        except ConfigurationError as exc:
            raise ArtifactError(
                f"method {self._spec.name!r} is no longer registered; refusing to "
                f"serve this model: {exc}"
            ) from exc
        if current.fingerprint_payload() != self._spec.fingerprint_payload():
            raise ArtifactError(
                f"method {self._spec.name!r} has been re-registered with a different "
                "spec since this model was built; refusing to serve a drifted model"
            )

    def as_servable(self, **engine_kwargs) -> "QueryEngine":
        """Query this fitted model in-process, without refitting or exporting.

        Returns a :class:`repro.serving.QueryEngine` over the in-memory
        embedding matrix — the same engine :meth:`ServableModel.open`
        builds over memory-mapped sidecars, so a loaded estimator
        (``Embedder.load(...).as_servable()``) serves identically to an
        exported one.  Raises :class:`~repro.exceptions.ArtifactError` if
        the model's method registration has drifted since it was built.
        """
        self._check_fitted()
        self._check_spec_current()
        from ..serving.engine import QueryEngine

        return QueryEngine(np.asarray(self._embeddings), **engine_kwargs)

    def export_servable(self, path: str | Path, *, overwrite: bool = False) -> Path:
        """Export this fitted model as a memory-mappable servable directory.

        See :func:`repro.serving.store.export_servable`.
        """
        self._check_fitted()
        self._check_spec_current()
        from ..serving.store import export_servable

        return export_servable(self, path, overwrite=overwrite)

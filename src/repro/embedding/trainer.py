"""Non-private structure-preference skip-gram trainer (SE-GEmb).

SE-GEmb\\ :sub:`DW` / SE-GEmb\\ :sub:`Deg` are the non-private counterparts
the paper uses as utility upper bounds in Figures 3 and 4.  The trainer
optimises the same structure-preference objective (Eq. 5) over the same
edge-subgraph batches, but applies the exact (un-clipped, un-noised) batch
gradient.

The epoch loop itself lives in :class:`~repro.engine.TrainingEngine`, and
the set-up and run shared with SE-PrivGEmb in :class:`SkipGramTrainerBase`;
this class only picks the negative sampler and the exact scatter update
rule.

Since the estimator redesign the trainer follows the
:class:`~repro.models.Embedder` protocol: configure it with a proximity
measure, then ``fit(graph)``::

    model = SEGEmbTrainer(DegreeProximity(), config=training, seed=0).fit(graph)
    model.embeddings_
"""

from __future__ import annotations

import abc

import numpy as np

from ..config import TrainingConfig
from ..engine import (
    DirectSparseUpdate,
    EngineResult,
    LossLoggingHook,
    SubgraphBatch,
    TrainingEngine,
    UpdateRule,
    resolve_compute_dtype,
)
from ..exceptions import TrainingError
from ..graph import Graph
from ..graph.sampling import (
    ProximityNegativeSampler,
    SubgraphSampler,
    UnigramNegativeSampler,
    generate_disjoint_subgraph_arrays,
)
from ..models.base import Embedder, FitResult
from ..privacy.accountant import PrivacySpent
from ..proximity.base import ProximityMatrix, ProximityMeasure
from ..proximity.cache import resolve_cache_policy
from ..utils.logging import get_logger
from ..utils.rng import ensure_rng
from .objectives import StructurePreferenceObjective
from .optimizer import SGDOptimizer
from .skipgram import SkipGramModel

__all__ = ["SEGEmbTrainer"]

_LOGGER = get_logger("embedding.trainer")


class SkipGramTrainerBase(Embedder):
    """Everything SE-GEmb and SE-PrivGEmb share: one setup-and-run path.

    The two trainers optimise the same Eq. 5 objective over the same
    Algorithm-1 subgraph set with the same Theorem-3 negative sampler; only
    Algorithm 2's clip → noise → account step differs.  So the constructor
    state, the registry hook, the set-up (model → negative sampler → pool
    → engine, in that RNG order), the serial run and the Algorithm-1
    accessors live here once.  A subclass supplies its
    :meth:`_update_rule`; the private trainer also adds the averaging hook
    and hooks the budget into :meth:`_admit` and :meth:`_account`.
    """

    proximity: ProximityMeasure | ProximityMatrix
    #: both skip-gram trainers can seed matrices from a prior artifact
    _supports_warm_start = True

    def __init__(
        self,
        proximity: ProximityMeasure | ProximityMatrix | None,
        training_config: TrainingConfig | None,
        seed: int | np.random.Generator | None,
        proximity_cache,
        compute_dtype,
    ) -> None:
        super().__init__()
        if proximity is None:
            raise TrainingError(
                f"{type(self).__name__} requires a proximity measure or matrix"
            )
        self.proximity = proximity
        self.training_config = training_config or TrainingConfig()
        self._seed = seed
        self._proximity_cache = proximity_cache
        self.compute_dtype = resolve_compute_dtype(compute_dtype)
        self.graph: Graph | None = None
        self.engine: TrainingEngine | None = None
        self.proximity_matrix: ProximityMatrix | None = None
        #: γ = B / |GS| of the last set-up subgraph set; outlives the fit
        self._sampling_rate: float | None = None

    @classmethod
    def from_method_spec(
        cls,
        spec,
        *,
        training=None,
        privacy=None,
        perturbation=None,
        proximity=None,
        proximity_cache="default",
        seed=None,
        **kwargs,
    ) -> "SkipGramTrainerBase":
        # the training config is both constructors' second parameter
        model = cls(
            proximity,
            training,
            seed=seed,
            proximity_cache=proximity_cache,
            **cls._privacy_options(privacy, perturbation),
            **kwargs,
        )
        model._spec = spec
        return model

    @classmethod
    def _privacy_options(cls, privacy, perturbation) -> dict:
        """Constructor options a registry build derives from its DP settings."""
        del privacy, perturbation  # a non-private method accepts them unused
        return {}

    def _make_model(self, graph: Graph) -> SkipGramModel:
        """Build the model from the fit's stream and apply any warm start."""
        model = SkipGramModel(
            graph.num_nodes,
            self.training_config.embedding_dim,
            seed=self._rng,
            dtype=self._train_dtype,
        )
        self._apply_warm_start(model)
        return model

    @property
    def _train_dtype(self) -> np.dtype:
        """The dtype the model trains in; the fit publishes ``compute_dtype``."""
        return self.compute_dtype

    def _apply_warm_start(self, model: SkipGramModel) -> None:
        """Overwrite the model's leading rows with the warm-start matrices.

        The model is always constructed through its full pinned init stream
        first, so node ``i >= donor`` rows (new nodes) keep exactly the
        initialisation a cold fit would give them, and the RNG stream
        position after ``_make_model`` is identical either way — sampling
        downstream is unperturbed by warm starting.  Donor rows beyond the
        current node count (removed nodes) are simply not copied.
        """
        warm = self._pending_warm_start
        if warm is None:
            return
        shared = min(model.num_nodes, warm.num_nodes)
        model.w_in[:shared] = warm.embeddings[:shared].astype(model.dtype, copy=False)
        if warm.context_embeddings is not None:
            model.w_out[:shared] = warm.context_embeddings[:shared].astype(
                model.dtype, copy=False
            )
        self._last_warm_start = {
            "source": warm.source,
            "method": warm.method,
            "dataset_fingerprint": warm.dataset_fingerprint,
            "donor_nodes": warm.num_nodes,
            "copied_rows": int(shared),
            "copied_context": warm.context_embeddings is not None,
        }

    def _fit_rng(self) -> np.random.Generator:
        return ensure_rng(
            self._seed if self._seed is not None else self.training_config.seed
        )

    def _resolve_proximity_matrix(
        self, graph: Graph, override: ProximityMatrix | None = None
    ) -> ProximityMatrix:
        """Measure → (possibly cached) matrix; matrices pass through.

        ``override`` is the per-fit precomputed matrix; it applies to this
        fit only and never replaces the configured ``self.proximity``, so a
        later ``fit`` on another graph resolves that graph's own matrix.
        """
        source = override if override is not None else self.proximity
        if isinstance(source, ProximityMatrix):
            self._proximity_fingerprint = f"matrix:{source.name}"
            return source
        measure: ProximityMeasure = source
        self._proximity_fingerprint = measure.fingerprint()
        cache = resolve_cache_policy(self._proximity_cache)
        if cache is None:
            return measure.compute(graph)
        return cache.get_or_compute(measure, graph)

    def _fit(
        self,
        graph: Graph,
        rng: np.random.Generator,
        proximity: ProximityMatrix | None = None,
        epochs: int | None = None,
    ):
        try:
            self._setup(graph, rng, proximity=proximity)
            return self._run_engine(epochs)
        finally:
            self._release_training_state()

    def _build_options(self) -> dict:
        """Record the knobs both trainers share for artifacts."""
        options = super()._build_options()
        if self.compute_dtype != np.dtype(np.float64):
            options["compute_dtype"] = self.compute_dtype.name
        return options

    # ------------------------------------------------------------------ #
    # set-up and run
    # ------------------------------------------------------------------ #
    def _setup(
        self,
        graph: Graph,
        rng: np.random.Generator,
        proximity: ProximityMatrix | None = None,
    ) -> None:
        """Build model, samplers and engine for ``graph`` (consumes ``rng``).

        The stream order is pinned: model initialisation, then the negative
        sampler's alias table, the subgraph pool, the batch sampler, and
        last :meth:`_update_rule` (the private noise spawns its own child
        stream, which reads nothing from ``rng``).  The engine allocates
        its step workspace per run.
        """
        if graph.num_edges == 0:
            raise TrainingError("cannot train on a graph with no edges")
        self.graph = graph
        self._rng = rng
        self.proximity_matrix = self._resolve_proximity_matrix(graph, proximity)
        self.objective = StructurePreferenceObjective(self.proximity_matrix)

        self.model = self._make_model(graph)
        pool = generate_disjoint_subgraph_arrays(
            graph, self._negative_sampler(graph), self.training_config.negative_samples
        )
        # Bind the proximity weights once; every batch then slices them
        # instead of re-reading the proximity matrix per example per step.
        self._subgraph_pool: SubgraphBatch = pool.with_weights(
            self.objective.edge_weights(pool.centers, pool.positives)
        )
        self._sampler = SubgraphSampler(
            self._subgraph_pool, self.training_config.batch_size, seed=rng
        )
        self._sampling_rate = self._sampler.sampling_rate
        self.engine = TrainingEngine(
            model=self.model,
            optimizer=SGDOptimizer(self.training_config.learning_rate),
            objective=self.objective,
            sampler=self._sampler,
            update_rule=self._update_rule(rng),
            hooks=(LossLoggingHook(_LOGGER),),
        )

    def _negative_sampler(self, graph: Graph):
        """The Theorem-3 sampler: candidates uniform, mass min(P)/Σ_j p_ij."""
        return ProximityNegativeSampler.from_proximity(
            graph, self.proximity_matrix, seed=self._rng
        )

    @abc.abstractmethod
    def _update_rule(self, rng: np.random.Generator) -> UpdateRule:
        """How the engine's gradients hit the parameters, seeded from ``rng``."""

    def _run_engine(self, epochs: int | None) -> FitResult:
        """Run the (already set up) engine and install the fitted state.

        ``_fit`` then releases the training state, so the zero-step path
        publishes the model's own matrices without a copy.
        """
        requested = int(epochs) if epochs is not None else self.training_config.epochs
        if requested <= 0:
            raise TrainingError(f"epochs must be positive, got {requested}")
        epochs = self._admit(requested)
        if epochs == 0:  # not even one step fits the budget
            result = EngineResult(
                embeddings=self.model.w_in, context_embeddings=self.model.w_out
            )
        else:
            result = self.engine.run(epochs)
        spent = self._account()
        # one cast at release where the fit trained in another dtype
        self._embeddings = result.embeddings.astype(self.compute_dtype, copy=False)
        self._context_embeddings = result.context_embeddings.astype(
            self.compute_dtype, copy=False
        )
        return FitResult(
            losses=result.losses,
            epochs_run=result.epochs_run,
            stopped_early=epochs < requested,
            privacy_spent=spent,
        )

    def _release_training_state(self) -> None:
        """Drop what only training reads; keep what the fit publishes.

        The engine takes its sampler, update rule and hooks (averaging
        corrections included) with it.  A fitted estimator holds its
        published matrices, its privacy record and the recorded γ.
        """
        self.engine = self.model = self._sampler = self._subgraph_pool = None

    def _admit(self, epochs: int) -> int:
        """How many of the requested epochs this fit may run."""
        return epochs

    def _account(self) -> PrivacySpent | None:
        """Report what the fit spent; ``None`` means not private."""
        return None

    def _require_setup(self) -> None:
        if self._sampling_rate is None:
            raise TrainingError(
                f"{type(self).__name__} has no graph yet; call fit(graph) first"
            )

    @property
    def sampling_rate(self) -> float:
        """The subsampling rate ``γ = B / |GS|``."""
        self._require_setup()
        return self._sampling_rate


class SEGEmbTrainer(SkipGramTrainerBase):
    """Train structure-preference skip-gram embeddings without privacy.

    Parameters
    ----------
    proximity:
        Either a :class:`ProximityMeasure` (computed on the graph at fit
        time, honouring ``proximity_cache``) or an already-computed
        :class:`ProximityMatrix`.
    config:
        Training hyper-parameters, kept as :attr:`training_config`.
    negative_sampling:
        ``"proximity"`` (default) uses the Theorem-3 sampler — the same one
        SE-PrivGEmb uses, making this trainer its exact non-private
        counterpart.  ``"unigram"`` uses the degree^0.75 word2vec sampler of
        the prior skip-gram methods (the comparison point of Section IV-B).
    seed:
        Master seed controlling initialisation, sampling and shuffling.
        ``fit(graph, rng=...)`` overrides it per fit.
    proximity_cache:
        ``"off"`` (default) computes a measure's matrix ephemerally;
        ``"default"`` routes it through the process-wide
        :class:`~repro.proximity.cache.ProximityCache`; an explicit cache
        instance is used as-is.  Ignored when ``proximity`` is already a
        matrix.
    compute_dtype:
        ``"float64"`` (default) or ``"float32"``.  Controls the model
        matrices and all gradient arithmetic; privacy-relevant math (noise
        draws, sensitivities, the accountant) always stays float64.
    """

    def __init__(
        self,
        proximity: ProximityMeasure | ProximityMatrix | None = None,
        config: TrainingConfig | None = None,
        negative_sampling: str = "proximity",
        seed: int | np.random.Generator | None = None,
        proximity_cache="off",
        compute_dtype="float64",
    ) -> None:
        super().__init__(proximity, config, seed, proximity_cache, compute_dtype)
        if negative_sampling not in {"proximity", "unigram"}:
            raise TrainingError(
                f"negative_sampling must be 'proximity' or 'unigram', got {negative_sampling!r}"
            )
        self.negative_sampling = negative_sampling

    def _build_options(self) -> dict:
        return {**super()._build_options(), "negative_sampling": self.negative_sampling}

    def _negative_sampler(self, graph: Graph):
        if self.negative_sampling == "unigram":
            return UnigramNegativeSampler(graph, seed=self._rng)
        return super()._negative_sampler(graph)

    def _update_rule(self, rng: np.random.Generator) -> UpdateRule:
        del rng  # the exact scatter update draws no randomness
        return DirectSparseUpdate()

    def __repr__(self) -> str:
        proximity = getattr(self.proximity, "name", None) or type(self.proximity).__name__
        return (
            f"SEGEmbTrainer(proximity={proximity!r}, "
            f"negative_sampling={self.negative_sampling!r}, "
            f"embedding_dim={self.training_config.embedding_dim})"
        )

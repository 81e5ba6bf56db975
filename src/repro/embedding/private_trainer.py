"""SE-PrivGEmb: the differentially private trainer (Algorithm 2).

Training loop, per epoch:

1. sample ``B`` edge subgraphs uniformly at random from the precomputed
   disjoint subgraph set ``GS`` (Algorithm 1),
2. compute the structure-preference gradients (Eq. 7 / Eq. 8),
3. clip per example, aggregate, perturb with the chosen strategy
   (non-zero Eq. 9 by default, naive Eq. 6 for the ablation), average,
4. descend on ``W_in`` and ``W_out``.

Algorithm 2's stop rule (lines 8-10: stop when the (ε, δ) budget would be
exceeded) is applied before the run: the step count is capped at
:meth:`~repro.privacy.accountant.RdpAccountant.max_steps` for sampling rate
``γ = B / |GS|`` (DP-SGD likewise fixes its step count from the
accountant up front), and the accountant is charged for the steps that
ran.

The published output is the pair ``(W_in, W_out)``; by post-processing
(Theorem 2) any downstream task computed from them retains the same
node-level DP guarantee.

The loop itself is :class:`~repro.engine.TrainingEngine`, and the set-up
and run shared with SE-GEmb live in
:class:`~repro.embedding.trainer.SkipGramTrainerBase`; this class adds only
what Algorithm 2 adds — the clip→noise→average update rule, the
iterate-averaging hook, the up-front budget gate, the RDP accounting and
the ledger.

Since the estimator redesign the trainer follows the
:class:`~repro.models.Embedder` protocol: configure, then ``fit(graph)``::

    model = SEPrivGEmbTrainer(DeepWalkProximity(), privacy_config=privacy).fit(graph)
    model.result_.privacy_spent   # budget actually consumed
"""

from __future__ import annotations

import numpy as np

from ..config import PrivacyConfig, TrainingConfig
from ..engine import EngineHook, IterateAveragingHook, PerturbedUpdate, TrainingEngine
from ..exceptions import TrainingError
from ..graph import Graph
from ..privacy.accountant import PrivacySpent, RdpAccountant
from ..proximity.base import ProximityMatrix, ProximityMeasure
from ..robustness.checkpoint import SupervisorPolicy
from ..utils.logging import get_logger
from .perturbation import PerturbationStrategy, get_perturbation
from .trainer import SkipGramTrainerBase

__all__ = ["SEPrivGEmbTrainer"]

_LOGGER = get_logger("embedding.private_trainer")


class _ChargeEachStep(EngineHook):
    """Charge the fit's accountant for each private step as it is taken.

    This composes only; the budget gate is :meth:`SEPrivGEmbTrainer._admit`,
    which fixed the step count before the run.  Charging at release keeps
    the in-process spend complete even when a run raises midway.
    """

    def __init__(self, accountant: RdpAccountant) -> None:
        self.accountant = accountant

    def after_step(self, engine: TrainingEngine, epoch: int, loss: float) -> None:
        self.accountant.step()


class SEPrivGEmbTrainer(SkipGramTrainerBase):
    """Structure-preference enabled private graph embedding (SE-PrivGEmb).

    Parameters
    ----------
    proximity:
        A :class:`ProximityMeasure` (computed at fit time, honouring
        ``proximity_cache``) or precomputed :class:`ProximityMatrix`
        providing the structure preference.
    training_config:
        Skip-gram / SGD hyper-parameters (``B``, ``η``, ``k``, ``r``,
        epochs).
    privacy_config:
        DP parameters (``ε``, ``δ``, ``σ``, ``C``).
    perturbation:
        ``"nonzero"`` (default, Eq. 9), ``"naive"`` (Eq. 6) or a
        pre-constructed :class:`PerturbationStrategy`.
    iterate_averaging:
        If ``True`` (default) the published matrices are the averages of
        the ``W_in`` and ``W_out`` iterates over all private steps
        (Polyak–Ruppert output averaging); ``False`` publishes the final
        iterate, as Algorithm 2 states.  Averaging is post-processing of
        the noised updates, so it costs no additional privacy (Theorem 2).
        It is this reproduction's addition, not the paper's, and it does
        not pay: in the three-seed link-prediction table of ROADMAP.md
        (item 3's evidence) the averaged output scores below the final
        iterate in all 18 (rule, ε, seed) cells.
    gradient_normalization:
        ``"per_row"`` (default) divides each row of the noisy summed gradient
        by the number of batch examples that touched it; ``"batch"`` divides
        by the batch size ``B``, which is the literal Eq. (9).  They differ
        by a *per-row* factor ``B / touches``, not by a constant rescaling
        of the learning rate: a row is touched by several examples of a
        batch, and how many varies by row and by step (in a default private
        fit the most-touched row collects a median of 6 and at most 12
        examples per step), so no single ``η`` turns one rule into the
        other.  Either division is post-processing of the noised sum, so
        the privacy guarantee is unchanged.  ``"per_row"`` is this
        reproduction's addition; the same ROADMAP.md table has it at
        chance (AUC 0.48–0.52 on two of three seeds at every ε) at the
        default ``η = 0.1``, while ``"batch"`` at ``η = B·0.1`` learns.
    seed:
        Master seed for initialisation, sampling and noise; overridable per
        fit with ``fit(graph, rng=...)``.
    proximity_cache:
        ``"off"`` (default), ``"default"`` (process-wide cache) or an
        explicit :class:`~repro.proximity.cache.ProximityCache`; ignored
        when ``proximity`` is already a matrix.
    compute_dtype:
        ``"float64"`` (default) or ``"float32"``: the dtype of the
        *published* matrices, as for the baselines.  The private step
        (model, gradients, noise, averaging, accountant) always runs in
        float64, so a float32 fit is the float64 fit rounded once at
        release.
    workers:
        ``1`` (default) trains serially, as the one-worker case of the
        hogwild recipe.  ``> 1`` shards the private step stream over that
        many forked hogwild workers updating a shared-memory model
        (:mod:`repro.engine.hogwild`); each worker builds its engine with
        the same builder as a serial fit.  Privacy is composed the same
        way for any worker count: the budgeted step count is fixed up
        front via :meth:`~repro.privacy.accountant.RdpAccountant.max_steps`,
        every worker draws its own float64 noise from a spawned stream,
        and the accountant composes the per-shard counts with
        :meth:`~repro.privacy.accountant.RdpAccountant.step_shards` once
        the run ends — RDP composition is linear in steps at fixed γ, so
        the reported (ε, δ) is the serial run's exactly.  Falls back to
        serial with a warning where ``fork`` is unavailable.
    """

    #: private fits can check admission against / record into a PrivacyLedger
    _supports_ledger = True

    def __init__(
        self,
        proximity: ProximityMeasure | ProximityMatrix | None = None,
        training_config: TrainingConfig | None = None,
        privacy_config: PrivacyConfig | None = None,
        perturbation: str | PerturbationStrategy = "nonzero",
        iterate_averaging: bool = True,
        gradient_normalization: str = "per_row",
        seed: int | np.random.Generator | None = None,
        proximity_cache="off",
        compute_dtype="float64",
        workers: int = 1,
        hogwild_resilience: SupervisorPolicy | None = None,
    ) -> None:
        super().__init__(
            proximity, training_config, seed, proximity_cache, compute_dtype,
            workers, hogwild_resilience,
        )
        if gradient_normalization not in {"per_row", "batch"}:
            raise TrainingError(
                "gradient_normalization must be 'per_row' or 'batch', got "
                f"{gradient_normalization!r}"
            )
        self.iterate_averaging = bool(iterate_averaging)
        self.gradient_normalization = gradient_normalization
        self.privacy_config = privacy_config or PrivacyConfig()
        self._perturbation_spec = perturbation
        self.perturbation: PerturbationStrategy | None = (
            perturbation if isinstance(perturbation, PerturbationStrategy) else None
        )
        self.accountant: RdpAccountant | None = None

    # ------------------------------------------------------------------ #
    def _metadata(self) -> dict:
        meta = super()._metadata()
        strategy = self.perturbation
        if strategy is not None:
            meta["perturbation"] = strategy.name
        elif isinstance(self._perturbation_spec, str):
            meta["perturbation"] = self._perturbation_spec
        return meta

    def _build_options(self) -> dict:
        return {
            **super()._build_options(),
            "iterate_averaging": self.iterate_averaging,
            "gradient_normalization": self.gradient_normalization,
        }

    @classmethod
    def _privacy_options(cls, privacy, perturbation) -> dict:
        return {
            "privacy_config": privacy,
            "perturbation": perturbation if perturbation is not None else "nonzero",
        }

    # ------------------------------------------------------------------ #
    def _setup(
        self, graph: Graph, rng: np.random.Generator, proximity: ProximityMatrix | None = None
    ) -> None:
        super()._setup(graph, rng, proximity=proximity)
        self.perturbation = self.engine.update_rule.perturbation
        self.accountant = RdpAccountant(
            noise_multiplier=self.privacy_config.noise_multiplier,
            sampling_rate=self._sampling_rate,
        )
        # the fit's own engine charges as it runs; a hogwild pool's shards
        # are composed when the pool ends (see _run_engine)
        self.engine.hooks += (_ChargeEachStep(self.accountant),)

    def _release_training_state(self) -> None:
        super()._release_training_state()
        if self.perturbation is not None and self.perturbation is not self._perturbation_spec:
            # the fit built this strategy: no later fit reads its noise ring,
            # while a caller's own strategy keeps its stream across fits
            self.perturbation.noise = None

    @property
    def _train_dtype(self) -> np.dtype:
        """A private step runs in float64 only, whatever ``compute_dtype`` says."""
        return np.dtype(np.float64)

    def _build_engine(self, rng: np.random.Generator) -> TrainingEngine:
        engine = super()._build_engine(rng)
        if self.iterate_averaging:
            engine.hooks += (IterateAveragingHook(),)
        return engine

    def _update_rule(self, rng: np.random.Generator) -> PerturbedUpdate:
        """Clip → noise → average, with noise from a child of ``rng``.

        Spawning draws nothing from ``rng``, so the init, pool and sampler
        streams are as if the noise did not exist, and the noise ring may
        run ahead.  A pre-constructed strategy serves the fit's own engine
        as-is; hogwild workers each get a copy with its calibration, since
        forked children would otherwise share one strategy's copy-on-write
        generator state and emit identical perturbations.
        """
        spec = self._perturbation_spec
        if isinstance(spec, PerturbationStrategy):
            if rng is self._rng:
                return PerturbedUpdate(spec, gradient_normalization=self.gradient_normalization)
            name, clipping, sigma = spec.name, spec.clipping_threshold, spec.noise_multiplier
        else:
            name = spec
            clipping = self.privacy_config.clipping_threshold
            sigma = self.privacy_config.noise_multiplier
        perturbation = get_perturbation(
            name, clipping_threshold=clipping, noise_multiplier=sigma, seed=rng.spawn(1)[0]
        )
        return PerturbedUpdate(perturbation, gradient_normalization=self.gradient_normalization)

    def _admit(self, epochs: int) -> int:
        """Cap the epochs by the ledger, then by the (ε, δ) budget.

        This is Algorithm 2's stop rule for serial and hogwild runs alike:
        ``max_steps`` is the largest step count whose ε stays within the
        target, so the run takes exactly the steps a per-step gate would
        admit, and the accountant composes them once the run ends.
        """
        ledger = self._active_ledger
        if ledger is not None:
            # Durable budget gate: the in-process accountant starts at zero,
            # so prior refits recorded in the ledger must bound this run.
            # check_admission raises PrivacyBudgetExhausted *before* any
            # mechanism invocation when even one step would break the target.
            ledger.attach(self.accountant)
            admissible = ledger.check_admission(
                self.privacy_config.epsilon,
                self.privacy_config.delta,
                noise_multiplier=self.privacy_config.noise_multiplier,
                sampling_rate=self._sampling_rate,
            )
            if epochs > admissible:
                _LOGGER.info(
                    "privacy ledger caps this refit at %d of %d requested epochs",
                    admissible,
                    epochs,
                )
                epochs = admissible
        budget = (
            self.accountant.max_steps(self.privacy_config.epsilon, self.privacy_config.delta)
            - self.accountant.steps
        )
        return max(0, min(epochs, budget))

    def _account(self, charged: list[int]) -> PrivacySpent:
        """Compose the shard counts, make the charge durable, report the spend."""
        self.accountant.step_shards(charged)
        ledger = self._active_ledger
        if ledger is not None:
            ledger.record_accountant(
                self.graph,
                self.accountant,
                method=self._spec.name if self._spec is not None else type(self).__name__,
                delta=self.privacy_config.delta,
                target_epsilon=self.privacy_config.epsilon,
            )
        return self.accountant.get_privacy_spent(self.privacy_config.delta)

    # ------------------------------------------------------------------ #
    def max_private_epochs(self) -> int:
        """Number of epochs the (ε, δ) budget allows (Algorithm 2 stop rule).

        Requires a graph: the sampling rate γ depends on the subgraph set,
        so the trainer must already be fitted.
        """
        self._require_setup()
        return self.accountant.max_steps(
            self.privacy_config.epsilon, self.privacy_config.delta
        )

    def __repr__(self) -> str:
        graph_name = self.graph.name if self.graph is not None else None
        proximity = (
            self.proximity_matrix.name
            if self.proximity_matrix is not None
            else getattr(self.proximity, "name", type(self.proximity).__name__)
        )
        perturbation = (
            self.perturbation.name
            if self.perturbation is not None
            else str(self._perturbation_spec)
        )
        return (
            f"SEPrivGEmbTrainer(graph={graph_name!r}, "
            f"proximity={proximity!r}, "
            f"perturbation={perturbation!r}, "
            f"epsilon={self.privacy_config.epsilon})"
        )

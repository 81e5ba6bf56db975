"""The method runner: map a method name + graph + budget to embeddings and scores.

This is the glue between the library and the table/figure reproductions.
``embed_with_method`` resolves a method name through the declarative
registry (:mod:`repro.models.registry`) — the eight methods of the paper's
evaluation are registered there:

* ``se_privgemb_dw`` / ``se_privgemb_deg`` — the proposed method with the
  DeepWalk / degree proximity,
* ``se_gemb_dw`` / ``se_gemb_deg`` — their non-private counterparts,
* ``dpggan``, ``dpgvae``, ``gap``, ``progap`` — the DP baselines.

Dispatch itself is two lines — build the registered estimator, fit it —
and new methods become registry entries instead of new branches here.
"""

from __future__ import annotations

import warnings
from typing import Any

import numpy as np

from ..config import PrivacyConfig, TrainingConfig
from ..evaluation import (
    link_prediction_auc,
    make_link_prediction_split,
    structural_equivalence_score,
)
from ..graph import Graph
from ..models import Embedder, get_method
from ..proximity.base import ProximityMatrix
from ..proximity.cache import ProximityCache, resolve_cache_policy
from ..utils.rng import repeat_streams
from ..utils.stats import summarize_runs

__all__ = [
    "embed_with_method",
    "evaluate_structural_equivalence",
    "evaluate_link_prediction",
    "is_private_method",
]


def _resolve_proximity(
    spec,
    graph: Graph,
    proximity: ProximityMatrix | None,
    deepwalk_window: int,
    proximity_cache: "str | ProximityCache",
) -> ProximityMatrix | None:
    """Precomputed matrix if given, otherwise the (possibly cached) compute.

    Returns ``None`` for methods without a proximity (the baselines).
    """
    if spec.proximity is None:
        return None
    if proximity is not None:
        return proximity
    measure = spec.make_proximity(deepwalk_window=deepwalk_window)
    cache = resolve_cache_policy(proximity_cache)
    if cache is None:
        return measure.compute(graph)
    return cache.get_or_compute(measure, graph)


def embed_with_method(
    method: str,
    graph: Graph,
    training: TrainingConfig,
    privacy: PrivacyConfig,
    seed: int | np.random.Generator | None = None,
    perturbation: str | None = None,
    proximity: ProximityMatrix | None = None,
    deepwalk_window: int = 5,
    proximity_cache: "str | ProximityCache" = "default",
    return_model: bool = False,
    workers: int = 1,
) -> np.ndarray | Embedder:
    """Produce an embedding matrix for ``graph`` with the named method.

    Parameters
    ----------
    method:
        A registered method name (see :func:`repro.models.available_methods`).
    graph:
        The (training) graph.
    training / privacy:
        Hyper-parameters; ``privacy`` is ignored by the non-private methods.
    seed:
        Seed or generator for the run.
    perturbation:
        Perturbation strategy for the SE-PrivGEmb variants ("nonzero" or
        "naive"); ``None`` (default) uses the registered spec's own
        default.  Ignored by every method without one.
    proximity:
        Optional precomputed proximity matrix for the SE methods; when
        omitted the matrix is resolved through ``proximity_cache``, so
        repeated sweeps over the same graph never recompute it.  Ignored by
        the baselines.
    deepwalk_window:
        Window size ``T`` of the DeepWalk proximity, for methods whose
        registered proximity is the truncated DeepWalk measure.
    proximity_cache:
        ``"default"`` (process-wide cache), ``"off"`` (compute ephemerally
        — the right choice for one-shot embeds of large graphs or throwaway
        split graphs), or an explicit
        :class:`~repro.proximity.cache.ProximityCache`.
    return_model:
        When ``True``, return the fitted :class:`~repro.models.Embedder`
        (with ``embeddings_``, ``result_`` incl. privacy spent, and
        ``save()``) instead of the bare embedding matrix.
    workers:
        Hogwild worker count for the SE trainers (``1`` = the unchanged
        serial path).  Methods without the knob (the DP baselines) warn and
        ignore it rather than fail the sweep.
    """
    spec = get_method(method)
    workers = int(workers)
    build_kwargs: dict[str, Any] = {}
    if workers != 1:
        if spec.proximity is not None:
            build_kwargs["workers"] = workers
        else:
            warnings.warn(
                f"method {method!r} does not support hogwild workers; "
                "training serially",
                RuntimeWarning,
                stacklevel=2,
            )
    model = spec.build(
        training=training,
        privacy=privacy,
        # None falls through to the spec's declared default inside build()
        perturbation=perturbation,
        deepwalk_window=deepwalk_window,
        proximity_cache=proximity_cache,
        seed=seed,
        **build_kwargs,
    )
    if spec.proximity is not None:
        model.fit(graph, proximity=proximity)
    else:
        model.fit(graph)
    return model if return_model else model.embeddings_


def is_private_method(method: str) -> bool:
    """Return ``True`` if the method consumes the privacy budget."""
    return get_method(method).private


def evaluate_structural_equivalence(
    method: str,
    graph: Graph,
    training: TrainingConfig,
    privacy: PrivacyConfig,
    repeats: int = 3,
    seed: int | np.random.SeedSequence = 0,
    perturbation: str | None = None,
    deepwalk_window: int = 5,
    proximity_cache: "str | ProximityCache" = "default",
    evaluation_seed: int | np.random.SeedSequence | None = None,
    workers: int = 1,
) -> tuple[float, float]:
    """Mean ± SD StrucEqu of a method over repeated runs on one graph.

    The proximity matrix of the SE methods is deterministic given the graph,
    so it is fetched once through the proximity cache and shared across the
    repeats — repeated runs only re-randomise initialisation, sampling and
    noise, and later sweeps over the same graph reuse the cached matrix.

    Repeats are seeded through :func:`repro.utils.rng.repeat_streams`
    (``SeedSequence.spawn``), so runs of adjacent base seeds never collide
    the way the old additive ``seed + repeat`` convention did, and the
    StrucEqu *evaluation* pair sample is held fixed across the repeats —
    the reported SD measures run-to-run variation, not scoring-sample
    noise.  ``evaluation_seed`` overrides the spawned evaluation stream:
    sweeps pass one derived from (base seed, dataset) so *every cell on
    the same graph* scores on the identical pair sample (common random
    numbers — cross-cell comparisons are not blurred by sampling noise
    either).
    """
    spec = get_method(method)
    proximity = _resolve_proximity(spec, graph, None, deepwalk_window, proximity_cache)
    train_streams, eval_stream = repeat_streams(seed, repeats)
    if evaluation_seed is not None:
        eval_stream = (
            evaluation_seed
            if isinstance(evaluation_seed, np.random.SeedSequence)
            else np.random.SeedSequence(evaluation_seed)
        )
    scores = []
    for train_stream in train_streams:
        embeddings = embed_with_method(
            method,
            graph,
            training,
            privacy,
            seed=np.random.default_rng(train_stream),
            perturbation=perturbation,
            proximity=proximity,
            deepwalk_window=deepwalk_window,
            proximity_cache=proximity_cache,
            workers=workers,
        )
        # a fresh generator from the *same* stream per repeat: identical
        # evaluation pair sample every time, by construction
        scores.append(
            structural_equivalence_score(
                graph, embeddings, seed=np.random.default_rng(eval_stream)
            )
        )
    summary = summarize_runs(scores)
    return summary.mean, summary.std


def evaluate_link_prediction(
    method: str,
    graph: Graph,
    training: TrainingConfig,
    privacy: PrivacyConfig,
    repeats: int = 3,
    seed: int | np.random.SeedSequence = 0,
    perturbation: str | None = None,
    deepwalk_window: int = 5,
    proximity_cache: "str | ProximityCache" = "off",
    workers: int = 1,
) -> tuple[float, float]:
    """Mean ± SD link-prediction AUC of a method over repeated runs on one graph.

    Each repetition draws a fresh 90/10 split, trains on the training graph
    only, and scores the held-out pairs with the dot-product scorer.  The
    split and the training run of one repeat use *separate* spawned
    streams (the old convention reused one integer seed for both, making
    the split permutation and the weight initialisation draw from
    identical generators).

    Split graphs are throwaway — a new one per repeat — so caching defaults
    to ``"off"``: their proximity matrices are computed ephemerally and
    freed with the repeat rather than pinned in the process-wide default
    cache for the process lifetime.  Pass ``"default"`` or an explicit
    :class:`~repro.proximity.cache.ProximityCache` to opt into caching them
    (e.g. when sweeping several ε values over the same seeds and splits).
    """
    spec = get_method(method)
    train_streams, _ = repeat_streams(seed, repeats)
    scores = []
    for train_stream in train_streams:
        split_stream, embed_stream = train_stream.spawn(2)
        split = make_link_prediction_split(graph, seed=np.random.default_rng(split_stream))
        proximity = _resolve_proximity(
            spec, split.training_graph, None, deepwalk_window, proximity_cache
        )
        embeddings = embed_with_method(
            method,
            split.training_graph,
            training,
            privacy,
            seed=np.random.default_rng(embed_stream),
            perturbation=perturbation,
            proximity=proximity,
            deepwalk_window=deepwalk_window,
            proximity_cache=proximity_cache,
            workers=workers,
        )
        scores.append(link_prediction_auc(embeddings, split))
    summary = summarize_runs(scores)
    return summary.mean, summary.std

"""Ablations of this reproduction's own design choices.

Beyond the paper's tables, three implementation decisions materially affect
the scaled-down experiments (the benches print each ablation's table; the
claims record is ROADMAP.md item 4):

* **iterate averaging** — publishing the average of the private W_in
  iterates instead of the last iterate,
* **gradient normalisation** — per-row averaging of the noisy summed
  gradient versus the literal Eq. (9) division by the batch size,
* **negative-sampling design** — the Theorem-3 proximity sampler of
  SE-GEmb versus the degree^0.75 unigram sampler of prior skip-gram work.

Each ablation trains the affected variants side by side on the same graphs
and reports StrucEqu, so the impact of the choice is measurable rather than
asserted.  Like the table/figure sweeps, the grids expand into
:class:`RunSpec` cells (kinds ``ablation_private`` and
``ablation_negative_sampling``) and delegate to the orchestrator, so they
parallelise and resume the same way.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

import numpy as np

from ..evaluation import structural_equivalence_score
from ..embedding import SEGEmbTrainer, SEPrivGEmbTrainer
from ..proximity import DeepWalkProximity, compute_proximity
from ..utils.rng import repeat_streams
from ..utils.stats import summarize_runs
from .configs import ExperimentSettings
from .orchestrator import (
    RunSpec,
    cell_seed_sequence,
    dataset_graph,
    evaluation_seed_sequence,
    execute,
    specs_for_settings,
)
from .results import ResultTable
from .store import RunStore

__all__ = [
    "ablation_iterate_averaging",
    "ablation_gradient_normalization",
    "ablation_negative_sampling",
]


# --------------------------------------------------------------------- #
# cell runners (dispatched by the orchestrator's kind registry)
# --------------------------------------------------------------------- #
def _run_ablation_cell(spec: RunSpec, make_model) -> dict[str, Any]:
    """Shared cell loop: repeated estimator fits scored on one fixed pair sample.

    ``make_model(proximity)`` builds the (unfitted) estimator variant under
    study; everything else — graph/proximity resolution, per-repeat spawned
    training streams, the evaluation stream shared across the cells of one
    graph (common random numbers) — is identical for every ablation kind.
    """
    graph = dataset_graph(spec)
    proximity = compute_proximity(DeepWalkProximity(window_size=spec.deepwalk_window), graph)
    train_streams, _ = repeat_streams(cell_seed_sequence(spec), spec.repeats)
    eval_stream = evaluation_seed_sequence(spec)
    scores = []
    for train_stream in train_streams:
        model = make_model(proximity).fit(graph, rng=np.random.default_rng(train_stream))
        scores.append(
            structural_equivalence_score(
                graph, model.embeddings_, seed=np.random.default_rng(eval_stream)
            )
        )
    summary = summarize_runs(scores)
    return {
        "metric": spec.metric,
        "mean": float(summary.mean),
        "std": float(summary.std),
        "repeats": spec.repeats,
    }


def run_private_cell(spec: RunSpec) -> dict[str, Any]:
    """One ``ablation_private`` cell: repeated SE-PrivGEmb runs, StrucEqu summary.

    ``spec.options`` carries the trainer keyword overrides under study
    (``iterate_averaging`` / ``gradient_normalization``).
    """
    trainer_kwargs = dict(spec.options)

    def make_model(proximity):
        return SEPrivGEmbTrainer(
            proximity=proximity,
            training_config=spec.training,
            privacy_config=spec.privacy,
            **trainer_kwargs,
        )

    return _run_ablation_cell(spec, make_model)


def run_negative_sampling_cell(spec: RunSpec) -> dict[str, Any]:
    """One ``ablation_negative_sampling`` cell: non-private SE-GEmb runs."""
    sampling = str(spec.option("negative_sampling", "proximity"))

    def make_model(proximity):
        return SEGEmbTrainer(
            proximity=proximity, config=spec.training, negative_sampling=sampling
        )

    return _run_ablation_cell(spec, make_model)


# --------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------- #
def _ablation_sweep(
    settings: ExperimentSettings,
    title: str,
    kind: str,
    method: str,
    axis_name: str,
    axis_values: tuple,
    workers: int,
    store: RunStore | str | Path | None,
) -> ResultTable:
    specs, rows = [], []
    for dataset_name in settings.datasets:
        for value in axis_values:
            specs.append(
                specs_for_settings(
                    kind,
                    method,
                    dataset_name,
                    settings,
                    options={axis_name: value},
                )
            )
            rows.append({"dataset": dataset_name, axis_name: value})
    report = execute(specs, workers=workers, store=store)
    table = ResultTable(title)
    for row, result in zip(rows, report.results, strict=True):
        table.add_row(
            {**row, "strucequ_mean": result["mean"], "strucequ_std": result["std"]}
        )
    table.run_report = report
    return table


def ablation_iterate_averaging(
    settings: ExperimentSettings | None = None,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Compare averaged-iterate output against the last iterate (Algorithm 2 literal)."""
    settings = settings or ExperimentSettings()
    return _ablation_sweep(
        settings,
        "Ablation: iterate averaging of the private embeddings",
        "ablation_private",
        "se_privgemb_dw",
        "iterate_averaging",
        (True, False),
        workers,
        store,
    )


def ablation_gradient_normalization(
    settings: ExperimentSettings | None = None,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Compare per-row normalisation against the literal Eq. (9) batch averaging."""
    settings = settings or ExperimentSettings()
    return _ablation_sweep(
        settings,
        "Ablation: gradient normalisation (per_row vs batch)",
        "ablation_private",
        "se_privgemb_dw",
        "gradient_normalization",
        ("per_row", "batch"),
        workers,
        store,
    )


def ablation_negative_sampling(
    settings: ExperimentSettings | None = None,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Compare the Theorem-3 sampler against the unigram sampler (non-private SE-GEmb)."""
    settings = settings or ExperimentSettings()
    return _ablation_sweep(
        settings,
        "Ablation: Theorem-3 vs unigram negative sampling (SE-GEmb)",
        "ablation_negative_sampling",
        "se_gemb_dw",
        "negative_sampling",
        ("proximity", "unigram"),
        workers,
        store,
    )

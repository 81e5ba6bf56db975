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
asserted.  An ablation cell is an ordinary ``strucequ`` :class:`RunSpec`
whose options carry the trainer keyword under study; the orchestrator hands
it to the estimator as a build override, and the grid runs through
:func:`repro.experiments.orchestrator.sweep` like every table and figure,
so it parallelises and resumes the same way.
"""

from __future__ import annotations

from pathlib import Path

from .configs import ExperimentSettings
from .orchestrator import specs_for_settings, sweep
from .results import ResultTable
from .store import RunStore

__all__ = [
    "ablation_iterate_averaging",
    "ablation_gradient_normalization",
    "ablation_negative_sampling",
]


def _ablation(
    settings: ExperimentSettings | None,
    title: str,
    method: str,
    keyword: str,
    values: tuple,
    workers: int,
    store: RunStore | str | Path | None,
) -> ResultTable:
    """One row per (dataset, value of the trainer ``keyword``)."""
    settings = settings or ExperimentSettings()
    cells = [
        (
            {"dataset": dataset_name, keyword: value},
            {
                "strucequ": specs_for_settings(
                    "strucequ", method, dataset_name, settings, options={keyword: value}
                )
            },
        )
        for dataset_name in settings.datasets
        for value in values
    ]
    return sweep(title, cells, workers=workers, store=store)


def ablation_iterate_averaging(
    settings: ExperimentSettings | None = None,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Compare averaged-iterate output against the last iterate (Algorithm 2 literal)."""
    return _ablation(
        settings, "Ablation: iterate averaging of the private embeddings",
        "se_privgemb_dw", "iterate_averaging", (True, False), workers, store,
    )


def ablation_gradient_normalization(
    settings: ExperimentSettings | None = None,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Compare per-row normalisation against the literal Eq. (9) batch averaging."""
    return _ablation(
        settings, "Ablation: gradient normalisation (per_row vs batch)",
        "se_privgemb_dw", "gradient_normalization", ("per_row", "batch"), workers, store,
    )


def ablation_negative_sampling(
    settings: ExperimentSettings | None = None,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Compare the Theorem-3 sampler against the unigram sampler (non-private SE-GEmb)."""
    return _ablation(
        settings, "Ablation: Theorem-3 vs unigram negative sampling (SE-GEmb)",
        "se_gemb_dw", "negative_sampling", ("proximity", "unigram"), workers, store,
    )

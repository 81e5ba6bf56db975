"""Reproductions of Tables II-VI: parameter studies and the perturbation ablation.

Each function sweeps one hyper-parameter of SE-PrivGEmb (batch size B,
learning rate η, clipping threshold C, negative samples k) or the
perturbation strategy, over the datasets of the supplied
:class:`ExperimentSettings`, and returns a :class:`ResultTable` whose rows
mirror the corresponding paper table (average StrucEqu ± SD per cell).

The sweeps expand into flat lists of :class:`RunSpec` cells and delegate to
:func:`repro.experiments.orchestrator.execute`: ``workers=1`` (default)
preserves the serial path, larger values fan the independent cells out over
a process pool, and ``store=`` makes the sweep resumable (completed cells
are never recomputed).  The executed :class:`SweepReport` is attached to
the returned table as ``table.run_report``.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from collections.abc import Sequence

from .configs import ExperimentSettings
from .orchestrator import SweepReport, execute, specs_for_settings
from .results import ResultTable
from .store import RunStore

__all__ = [
    "table_batch_size",
    "table_learning_rate",
    "table_clipping",
    "table_negative_samples",
    "table_perturbation",
]

# The two SE-PrivGEmb variants every parameter table reports.
_VARIANTS = ("se_privgemb_dw", "se_privgemb_deg")

# Paper sweep values (used as defaults; callers can narrow them for speed).
PAPER_BATCH_SIZES: tuple[int, ...] = (32, 64, 128, 256, 512, 1024)
PAPER_LEARNING_RATES: tuple[float, ...] = (0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
PAPER_CLIPPING_THRESHOLDS: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
PAPER_NEGATIVE_SAMPLES: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
PAPER_PERTURBATION_EPSILONS: tuple[float, ...] = (0.5, 2.0, 3.5)


def _attach_report(table: ResultTable, report: SweepReport) -> ResultTable:
    table.run_report = report
    return table


def _sweep(
    settings: ExperimentSettings,
    title: str,
    parameter_name: str,
    values: Sequence,
    apply_value,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Shared sweep: expand dataset × variant × value cells, then execute."""
    specs, rows = [], []
    for dataset_name in settings.datasets:
        for variant in _VARIANTS:
            for value in values:
                training, privacy, perturbation = apply_value(settings, value)
                specs.append(
                    specs_for_settings(
                        "strucequ",
                        variant,
                        dataset_name,
                        settings,
                        training=training,
                        privacy=privacy,
                        perturbation=perturbation,
                    )
                )
                rows.append({"dataset": dataset_name, "method": variant, parameter_name: value})
    report = execute(specs, workers=workers, store=store)
    table = ResultTable(title)
    for row, result in zip(rows, report.results, strict=True):
        table.add_row(
            {**row, "strucequ_mean": result["mean"], "strucequ_std": result["std"]}
        )
    return _attach_report(table, report)


def table_batch_size(
    settings: ExperimentSettings | None = None,
    batch_sizes: Sequence[int] = PAPER_BATCH_SIZES,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Table II: StrucEqu versus batch size ``B`` at ε = 3.5."""
    settings = settings or ExperimentSettings()

    def apply(s: ExperimentSettings, value: int):
        return s.training.with_updates(batch_size=int(value)), s.privacy, "nonzero"

    return _sweep(
        settings,
        "Table II: StrucEqu vs batch size B",
        "batch_size",
        batch_sizes,
        apply,
        workers=workers,
        store=store,
    )


def table_learning_rate(
    settings: ExperimentSettings | None = None,
    learning_rates: Sequence[float] = PAPER_LEARNING_RATES,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Table III: StrucEqu versus learning rate ``η`` at ε = 3.5."""
    settings = settings or ExperimentSettings()

    def apply(s: ExperimentSettings, value: float):
        return s.training.with_updates(learning_rate=float(value)), s.privacy, "nonzero"

    return _sweep(
        settings,
        "Table III: StrucEqu vs learning rate η",
        "learning_rate",
        learning_rates,
        apply,
        workers=workers,
        store=store,
    )


def table_clipping(
    settings: ExperimentSettings | None = None,
    thresholds: Sequence[float] = PAPER_CLIPPING_THRESHOLDS,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Table IV: StrucEqu versus gradient clipping threshold ``C`` at ε = 3.5."""
    settings = settings or ExperimentSettings()

    def apply(s: ExperimentSettings, value: float):
        privacy = dataclasses.replace(s.privacy, clipping_threshold=float(value))
        return s.training, privacy, "nonzero"

    return _sweep(
        settings,
        "Table IV: StrucEqu vs clipping threshold C",
        "clipping_threshold",
        thresholds,
        apply,
        workers=workers,
        store=store,
    )


def table_negative_samples(
    settings: ExperimentSettings | None = None,
    negative_samples: Sequence[int] = PAPER_NEGATIVE_SAMPLES,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Table V: StrucEqu versus negative sampling number ``k`` at ε = 3.5."""
    settings = settings or ExperimentSettings()

    def apply(s: ExperimentSettings, value: int):
        return s.training.with_updates(negative_samples=int(value)), s.privacy, "nonzero"

    return _sweep(
        settings,
        "Table V: StrucEqu vs negative samples k",
        "negative_samples",
        negative_samples,
        apply,
        workers=workers,
        store=store,
    )


def table_perturbation(
    settings: ExperimentSettings | None = None,
    epsilons: Sequence[float] = PAPER_PERTURBATION_EPSILONS,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Table VI: naive (Eq. 6) versus non-zero (Eq. 9) perturbation.

    For each dataset, SE-PrivGEmb variant and privacy budget, both
    strategies are trained and scored; the non-zero strategy should dominate
    at every ε, reproducing the paper's ablation.
    """
    settings = settings or ExperimentSettings()
    strategies = ("naive", "nonzero")
    specs, rows = [], []
    for dataset_name in settings.datasets:
        for variant in _VARIANTS:
            for epsilon in epsilons:
                privacy = settings.privacy.with_epsilon(float(epsilon))
                rows.append(
                    {"dataset": dataset_name, "method": variant, "epsilon": float(epsilon)}
                )
                for strategy in strategies:
                    specs.append(
                        specs_for_settings(
                            "strucequ",
                            variant,
                            dataset_name,
                            settings,
                            privacy=privacy,
                            perturbation=strategy,
                        )
                    )
    report = execute(specs, workers=workers, store=store)
    table = ResultTable("Table VI: naive vs non-zero perturbation")
    for row_index, row in enumerate(rows):
        for offset, strategy in enumerate(strategies):
            result = report.results[row_index * len(strategies) + offset]
            row[f"{strategy}_mean"] = result["mean"]
            row[f"{strategy}_std"] = result["std"]
        table.add_row(row)
    return _attach_report(table, report)

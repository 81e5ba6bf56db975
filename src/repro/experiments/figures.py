"""Reproductions of Figures 3 and 4: utility versus privacy budget.

Figure 3 sweeps ε over all eight methods and reports StrucEqu per dataset;
Figure 4 does the same with link-prediction AUC.  The functions return
:class:`ResultTable` objects with one row per (dataset, method, ε) — the
series the paper plots.

Both sweeps expand into :class:`RunSpec` cells and run through
:func:`repro.experiments.orchestrator.sweep`: a non-private method's cell
keeps the base privacy settings at every ε, so all its rows share one
fingerprint and :func:`sweep` computes it once per dataset (the flat lines
in the figures), while each private (method, dataset, ε) triple is its own
cell.  ``workers`` and ``store`` behave as in :mod:`repro.experiments.tables`.
"""

from __future__ import annotations

from pathlib import Path
from collections.abc import Sequence

from .configs import ExperimentSettings, PAPER_METHODS
from .orchestrator import specs_for_settings, sweep
from .results import ResultTable
from .runner import is_private_method
from .store import RunStore

__all__ = ["figure_structural_equivalence", "figure_link_prediction"]


def _figure(
    settings: ExperimentSettings,
    methods: Sequence[str],
    title: str,
    metric_name: str,
    kind: str,
    workers: int,
    store: RunStore | str | Path | None,
) -> ResultTable:
    """One row per (dataset, method, ε); a non-private row ignores ε."""
    cells = [
        (
            {"dataset": dataset_name, "method": method, "epsilon": float(epsilon)},
            {
                metric_name: specs_for_settings(
                    kind,
                    method,
                    dataset_name,
                    settings,
                    privacy=(
                        settings.privacy.with_epsilon(float(epsilon))
                        if is_private_method(method)
                        else settings.privacy
                    ),
                    metric=metric_name,
                )
            },
        )
        for dataset_name in settings.datasets
        for method in methods
        for epsilon in settings.epsilons
    ]
    return sweep(title, cells, workers=workers, store=store)


def figure_structural_equivalence(
    settings: ExperimentSettings | None = None,
    methods: Sequence[str] = PAPER_METHODS,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Figure 3: StrucEqu versus privacy budget ε for every method and dataset."""
    settings = settings or ExperimentSettings()
    return _figure(
        settings, methods, "Figure 3: StrucEqu vs privacy budget", "strucequ", "strucequ",
        workers, store,
    )


def figure_link_prediction(
    settings: ExperimentSettings | None = None,
    methods: Sequence[str] = PAPER_METHODS,
    workers: int = 1,
    store: RunStore | str | Path | None = None,
) -> ResultTable:
    """Figure 4: link-prediction AUC versus privacy budget ε."""
    settings = settings or ExperimentSettings()
    return _figure(
        settings, methods, "Figure 4: link-prediction AUC vs privacy budget", "auc", "linkpred",
        workers, store,
    )

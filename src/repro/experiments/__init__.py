"""Experiment harness reproducing every table and figure of the paper.

Run sweeps from the command line with ``python -m repro.experiments`` —
e.g. ``python -m repro.experiments run --table 2 --workers 8 --store runs/``
executes the Table-II grid on eight worker processes and memoizes every
finished cell in ``runs/`` so a killed sweep resumes without recomputation.
"""

from .configs import ExperimentSettings, PAPER_EPSILONS, PAPER_METHODS
from .orchestrator import RunSpec, SweepReport, execute
from .results import ResultTable
from .runner import embed_with_method, evaluate_structural_equivalence, evaluate_link_prediction
from .store import RunStore
from .tables import (
    table_batch_size,
    table_learning_rate,
    table_clipping,
    table_negative_samples,
    table_perturbation,
)
from .figures import figure_structural_equivalence, figure_link_prediction
from .ablations import (
    ablation_iterate_averaging,
    ablation_gradient_normalization,
    ablation_negative_sampling,
)

__all__ = [
    "ablation_iterate_averaging",
    "ablation_gradient_normalization",
    "ablation_negative_sampling",
    "ExperimentSettings",
    "PAPER_EPSILONS",
    "PAPER_METHODS",
    "ResultTable",
    "RunSpec",
    "RunStore",
    "SweepReport",
    "execute",
    "embed_with_method",
    "evaluate_structural_equivalence",
    "evaluate_link_prediction",
    "table_batch_size",
    "table_learning_rate",
    "table_clipping",
    "table_negative_samples",
    "table_perturbation",
    "figure_structural_equivalence",
    "figure_link_prediction",
]

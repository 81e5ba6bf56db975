"""Statistics helpers for repeated experiment runs (mean ± SD reporting)."""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

__all__ = ["RunSummary", "summarize_runs"]


@dataclass(frozen=True)
class RunSummary:
    """Mean and standard deviation of a set of repeated runs."""

    mean: float
    std: float
    count: int

    def __str__(self) -> str:
        return f"{self.mean:.4f}±{self.std:.4f}"


def summarize_runs(values: Sequence[float]) -> RunSummary:
    """Summarise repeated metric values as mean ± SD.

    Mirrors the paper's "average StrucEqu ± SD over ten experiments" rows.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return RunSummary(mean=0.0, std=0.0, count=0)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return RunSummary(mean=float(arr.mean()), std=std, count=int(arr.size))

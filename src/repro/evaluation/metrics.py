"""Evaluation metrics: Pearson correlation and ROC AUC.

Both are implemented directly (no sklearn dependency): Pearson as the
normalised covariance, AUC via the rank-sum (Mann–Whitney U) formulation
with proper tie handling.  The average ranks come from
:func:`average_ranks`, not ``scipy.stats.rankdata``: importing
``scipy.stats`` loads SciPy's whole distribution stack (``linalg``,
``optimize``, ``spatial``, ``special``, ``ndimage`` and a second OpenBLAS),
about 50 MB resident for the life of the process, for one sort.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EvaluationError

__all__ = ["average_ranks", "pearson_correlation", "roc_auc_score"]


def pearson_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation coefficient between two equal-length vectors.

    Returns 0.0 when either vector is constant (the correlation is undefined
    there; 0 is the conventional fallback for structural-equivalence scoring
    of degenerate embeddings).
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise EvaluationError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise EvaluationError("need at least two observations for a correlation")
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return 0.0
    xc = x - x.mean()
    yc = y - y.mean()
    denom = float(np.sqrt(np.sum(xc**2) * np.sum(yc**2)))
    if denom == 0.0:
        return 0.0
    return float(np.sum(xc * yc) / denom)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of the flattened ``values``, ties sharing their mean rank.

    Equal to ``scipy.stats.rankdata(values)`` (method ``"average"``,
    ``nan_policy="propagate"``): any NaN makes every rank NaN.  A tie group
    occupying sorted positions ``start .. end - 1`` gets rank
    ``0.5 * (start + end + 1)``, an exact half, so the ranks and any sum of
    them are exact below 2**52.
    """
    values = np.asarray(values).ravel()
    if values.dtype.kind in "fc" and np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def roc_auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the Mann–Whitney U statistic.

    ``labels`` must be binary (0/1 or bool) and contain both classes; any
    other value raises :class:`EvaluationError`.  Ties in ``scores`` are
    handled through average ranks.
    """
    labels = np.asarray(labels).ravel()
    scores = np.asarray(scores, dtype=float).ravel()
    if labels.shape != scores.shape:
        raise EvaluationError(f"length mismatch: {labels.shape} vs {scores.shape}")
    is_positive = labels == 1
    is_binary = is_positive | (labels == 0)
    if not np.all(is_binary):
        strays = np.unique(labels[~is_binary])[:5].tolist()
        raise EvaluationError(f"roc_auc_score needs 0/1 labels, got {strays}")
    positives = int(np.count_nonzero(is_positive))
    negatives = labels.size - positives
    if positives == 0 or negatives == 0:
        raise EvaluationError("roc_auc_score needs both positive and negative labels")
    ranks = average_ranks(scores)
    rank_sum_positive = float(np.sum(ranks[is_positive]))
    u_statistic = rank_sum_positive - positives * (positives + 1) / 2.0
    return float(u_statistic / (positives * negatives))

"""Correctness checks run on every benchmark run.

Each check returns a list of problem strings (empty when it passes), so a
failed check turns the operation it guards into a failed operation
instead of aborting the run.  None of them depends on a pinned RNG
stream: they compare the program's outputs with what those outputs must
be, whatever the seed or sampling scheme that produced them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

#: float32 cosine scores agree with a float64 oracle to this tolerance
SCORE_RTOL = 1e-4
SCORE_ATOL = 1e-5


def check_fit(result, requested_steps: int, target_epsilon: float | None = None) -> list[str]:
    """The fit ran every requested step and, if private, stayed in budget."""
    problems = []
    if result.epochs_run != requested_steps:
        problems.append(f"fit ran {result.epochs_run} of {requested_steps} requested steps")
    if result.stopped_early:
        problems.append("fit reports stopped_early")
    if target_epsilon is not None:
        spent = result.privacy_spent
        if spent is None:
            problems.append("private fit reports no privacy spent")
        elif not spent.epsilon <= target_epsilon:
            problems.append(f"epsilon spent {spent.epsilon} exceeds target {target_epsilon}")
    return problems


def check_servable(servable, embeddings: np.ndarray, context: np.ndarray | None) -> list[str]:
    """The servable's matrices are bit-for-bit the fitted ones."""
    problems = []
    pairs = [("embeddings", servable.embeddings, embeddings)]
    if context is not None:
        pairs.append(("context_embeddings", servable.context_embeddings, context))
    for name, served, fitted in pairs:
        if served is None:
            problems.append(f"servable has no {name}")
            continue
        fitted = np.asarray(fitted)
        if served.shape != fitted.shape or served.dtype != fitted.dtype:
            problems.append(
                f"servable {name} is {served.dtype}{served.shape}, "
                f"fitted is {fitted.dtype}{fitted.shape}"
            )
        elif np.ascontiguousarray(served).tobytes() != np.ascontiguousarray(fitted).tobytes():
            bad = int(np.count_nonzero(np.asarray(served) != fitted))
            problems.append(f"servable {name} differs from the fit in {bad} entries")
    return problems


def oracle_cosine(embeddings: np.ndarray, node: int) -> np.ndarray:
    """Float64 cosine of ``node`` against every row (the brute-force oracle)."""
    emb = np.asarray(embeddings, dtype=np.float64)
    norms = np.maximum(np.linalg.norm(emb, axis=1), 1e-12)
    return emb @ emb[node] / (norms * norms[node])


def check_topk(
    embeddings: np.ndarray,
    nodes: Sequence[int],
    ids: np.ndarray,
    scores: np.ndarray,
    k: int,
) -> list[str]:
    """Cosine top-k answers match a brute-force float64 oracle.

    Row ``i`` of ``ids`` / ``scores`` answers ``nodes[i]``.  The answer must
    hold ``min(k, n - 1)`` distinct ids other than the query itself, scored
    as the oracle scores them, in descending order with exact ties broken
    by ascending id, and no candidate left out may beat the last one
    returned.  Scores are float32 in the engine, so comparisons against the
    oracle allow ``SCORE_ATOL + SCORE_RTOL * |score|``.  Returns one
    problem per wrong answer.
    """
    problems = []
    for row, node in enumerate(nodes):
        wrong = _topk_answer_problems(embeddings, int(node), ids[row], scores[row], int(k))
        if wrong:
            problems.append(f"top-{k} of node {int(node)}: " + "; ".join(wrong))
    return problems


def _topk_answer_problems(embeddings, node: int, ids, scores, k: int) -> list[str]:
    n = int(np.asarray(embeddings).shape[0])
    k_eff = min(k, n - 1)
    got_ids = np.asarray(ids, dtype=np.int64)
    got = np.asarray(scores, dtype=np.float64)
    if got_ids.shape != (k_eff,) or got.shape != (k_eff,):
        return [f"{got_ids.shape[0]} answers, expected {k_eff}"]
    if got_ids.min() < 0 or got_ids.max() >= n:
        return [f"ids outside [0, {n})"]
    problems = []
    if node in got_ids:
        problems.append("answer includes the query node")
    if np.unique(got_ids).size != k_eff:
        problems.append("duplicate ids")
    oracle = oracle_cosine(embeddings, node)
    tol = SCORE_ATOL + SCORE_RTOL * np.abs(oracle[got_ids])
    if np.any(np.abs(got - oracle[got_ids]) > tol):
        problems.append("reported scores disagree with the oracle")
    if np.any(np.diff(got) > 0):
        problems.append("scores not in descending order")
    tied = got[:-1] == got[1:]
    if np.any(got_ids[:-1][tied] > got_ids[1:][tied]):
        problems.append("tied scores not in ascending id order")
    oracle[node] = -np.inf
    # descending score, ascending id: the engine's documented contract
    best = np.lexsort((np.arange(n), -oracle))[:k_eff]
    kth = oracle[best[-1]]
    if oracle[got_ids].min() < kth - SCORE_ATOL - SCORE_RTOL * abs(kth):
        problems.append("a better candidate was left out")
    # a rank may differ from the oracle's only inside a float32 near-tie
    differs = got_ids != best
    gap = np.abs(oracle[got_ids] - oracle[best])
    if np.any(gap[differs] > 2 * tol[differs]):
        problems.append("ranking differs from the oracle")
    return problems


def check_finite(values: Mapping[str, float]) -> list[str]:
    """Every named value is a finite number."""
    return [f"{name} is not finite ({value!r})" for name, value in values.items()
            if not math.isfinite(value)]

"""Train/test splits for link prediction.

Following the paper (and Zhang & Chen 2018, which it cites): the observed
edges are split 90% / 10% into training and test positives; an equal number
of non-edges is sampled as negatives for each side.  The training graph is
the original graph with the test edges removed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..exceptions import EvaluationError
from ..graph import Graph
from ..utils.rng import ensure_rng

__all__ = ["LinkPredictionSplit", "make_link_prediction_split"]


@dataclass(frozen=True)
class LinkPredictionSplit:
    """All the pieces of one link-prediction experiment.

    Attributes
    ----------
    training_graph:
        The original graph with the test positives removed — the graph the
        embedding method is allowed to see.
    train_positive / train_negative:
        Edge / non-edge pairs available for fitting a downstream scorer.
    test_positive / test_negative:
        Held-out pairs on which AUC is measured.
    untrained_test_endpoints:
        Number of test-positive endpoints left with *zero* training edges
        by the split.  Such nodes never receive a gradient, so the scorer
        ranks their untrained initialisation noise — the paper's protocol
        implicitly assumes the training graph keeps every test endpoint
        connected.  A non-zero count is reported with a warning by
        :func:`make_link_prediction_split`.
    """

    training_graph: Graph
    train_positive: np.ndarray
    train_negative: np.ndarray
    test_positive: np.ndarray
    test_negative: np.ndarray
    untrained_test_endpoints: int = 0

    def test_labels_and_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(labels, pairs)`` for the test set (positives first)."""
        pairs = np.vstack([self.test_positive, self.test_negative])
        labels = np.concatenate(
            [
                np.ones(len(self.test_positive), dtype=int),
                np.zeros(len(self.test_negative), dtype=int),
            ]
        )
        return labels, pairs


def make_link_prediction_split(
    graph: Graph,
    test_fraction: float = 0.1,
    seed: int | np.random.Generator | None = None,
) -> LinkPredictionSplit:
    """Build the 90/10 link-prediction split with balanced negatives.

    Parameters
    ----------
    graph:
        The full observed graph.
    test_fraction:
        Fraction of edges held out as test positives (paper: 0.1).
    seed:
        Seed or generator for the edge shuffling and negative sampling.
    """
    if not 0 < test_fraction < 1:
        raise EvaluationError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if graph.num_edges < 10:
        raise EvaluationError(
            f"graph {graph.name!r} has too few edges ({graph.num_edges}) to split"
        )
    rng = ensure_rng(seed)

    edges = graph.edges.copy()
    order = rng.permutation(len(edges))
    num_test = max(1, int(round(test_fraction * len(edges))))
    test_idx = order[:num_test]
    train_idx = order[num_test:]
    test_positive = edges[test_idx]
    train_positive = edges[train_idx]

    training_graph = graph.subgraph_without_edges(test_positive, name=f"{graph.name}-train")

    test_negative = graph.non_edges_sample(len(test_positive), rng)
    train_negative = graph.non_edges_sample(len(train_positive), rng, exclude=test_negative)

    training_degrees = training_graph.degrees()
    test_endpoints = np.unique(test_positive)
    untrained = int(np.count_nonzero(training_degrees[test_endpoints] == 0))
    if untrained:
        warnings.warn(
            f"link-prediction split of {graph.name!r} left {untrained} test-positive "
            "endpoint(s) with no training edges; their embeddings are untrained "
            "initialisation noise and will distort AUC (the paper's protocol "
            "assumes the training graph stays connected)",
            RuntimeWarning,
            stacklevel=2,
        )

    return LinkPredictionSplit(
        training_graph=training_graph,
        train_positive=train_positive,
        train_negative=train_negative,
        test_positive=test_positive,
        test_negative=test_negative,
        untrained_test_endpoints=untrained,
    )

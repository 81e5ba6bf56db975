"""Tests for the metrics, link-prediction splits and the two downstream tasks."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
import split_oracle
from scipy import stats

from repro import EvaluationError, Graph, available_datasets, load_dataset
from repro.evaluation import (
    link_prediction_auc,
    make_link_prediction_split,
    pearson_correlation,
    roc_auc_score,
    score_edges,
    structural_equivalence_score,
)
from repro.evaluation.metrics import average_ranks
from repro.evaluation.structural_equivalence import _adjacency_distances


class TestPearson:
    def test_perfect_correlation(self):
        x = np.arange(10, dtype=float)
        assert pearson_correlation(x, 2 * x + 3) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)

    def test_matches_numpy(self, rng):
        x = rng.normal(size=100)
        y = 0.3 * x + rng.normal(size=100)
        assert pearson_correlation(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-10)

    def test_constant_vector_returns_zero(self):
        assert pearson_correlation(np.ones(5), np.arange(5.0)) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(EvaluationError):
            pearson_correlation(np.ones(3), np.ones(4))

    def test_too_short_raises(self):
        with pytest.raises(EvaluationError):
            pearson_correlation(np.ones(1), np.ones(1))


class TestRocAuc:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc_score(labels, scores) == pytest.approx(1.0)

    def test_inverted_scores_give_zero(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc_score(labels, scores) == pytest.approx(0.0)

    def test_random_scores_near_half(self, rng):
        labels = rng.integers(0, 2, size=2000)
        while labels.sum() in (0, len(labels)):
            labels = rng.integers(0, 2, size=2000)
        scores = rng.normal(size=2000)
        assert roc_auc_score(labels, scores) == pytest.approx(0.5, abs=0.05)

    def test_ties_handled_via_average_ranks(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert roc_auc_score(labels, scores) == pytest.approx(0.5)

    def test_single_class_raises(self):
        with pytest.raises(EvaluationError):
            roc_auc_score(np.ones(4), np.arange(4.0))

    @pytest.mark.parametrize(
        "labels",
        [[0, 1, 2, 2], [0, 1, -1, 1], [0.0, 1.0, 0.9, 0.0], [0.0, 1.0, np.nan, 1.0]],
        ids=["two", "minus-one", "non-integral-float", "nan"],
    )
    def test_non_binary_labels_raise(self, labels):
        with pytest.raises(EvaluationError, match="0/1 labels"):
            roc_auc_score(labels, [0.1, 0.2, 0.3, 0.4])

    def test_bool_and_float_binary_labels_match_int(self, rng):
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1])
        scores = rng.normal(size=labels.size)
        expected = roc_auc_score(labels, scores)
        assert roc_auc_score(labels.astype(bool), scores) == expected
        assert roc_auc_score(labels.astype(float), scores) == expected

    def test_auc_bit_identical_to_scipy_ranks(self, rng):
        labels = rng.integers(0, 2, size=12_000)
        # rounded scores: many ties, the case the average ranks exist for
        scores = np.round(rng.normal(size=labels.size), 2)
        ranks = stats.rankdata(scores)
        positives = int(labels.sum())
        u_statistic = float(np.sum(ranks[labels == 1])) - positives * (positives + 1) / 2.0
        expected = u_statistic / (positives * (labels.size - positives))
        assert roc_auc_score(labels, scores) == expected


class TestAverageRanks:
    """``average_ranks`` equals ``scipy.stats.rankdata`` byte for byte."""

    @staticmethod
    def assert_matches_scipy(values):
        ours = average_ranks(values)
        theirs = stats.rankdata(values)
        assert ours.dtype == theirs.dtype == np.float64
        assert ours.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize(
        "values",
        [
            [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
            [7.5] * 6,
            [4.2],
            [],
            [0.0, -0.0, 1.0, -0.0, -1.0],
            [np.inf, -np.inf, 0.0, np.inf, -np.inf, 1.0],
            [5, 3, 5, 1, 3, 5, 0],
            [[2.0, 1.0], [1.0, 0.5]],
        ],
        ids=["ties", "all-equal", "one", "empty", "signed-zeros", "infinities", "int",
             "2d-flattened"],
    )
    def test_matches_scipy(self, values):
        self.assert_matches_scipy(np.asarray(values))

    @pytest.mark.parametrize("values", [[1.0, np.nan, 2.0], [np.nan], [np.nan, np.nan, 0.0]])
    def test_nan_propagates_to_every_rank(self, values):
        ranks = average_ranks(np.asarray(values))
        assert ranks.shape == (len(values),)
        assert np.all(np.isnan(ranks))
        self.assert_matches_scipy(np.asarray(values))

    def test_large_random_input(self, rng):
        self.assert_matches_scipy(np.round(rng.normal(size=12_000), 2))


class TestLinkPredictionSplit:
    def test_split_sizes(self, medium_graph):
        split = make_link_prediction_split(medium_graph, test_fraction=0.1, seed=0)
        expected_test = max(1, int(round(0.1 * medium_graph.num_edges)))
        assert len(split.test_positive) == expected_test
        assert len(split.test_negative) == expected_test
        assert len(split.train_positive) == medium_graph.num_edges - expected_test
        assert len(split.train_negative) == len(split.train_positive)

    def test_training_graph_excludes_test_edges(self, medium_graph):
        split = make_link_prediction_split(medium_graph, seed=1)
        for u, v in split.test_positive:
            assert not split.training_graph.has_edge(int(u), int(v))
        assert split.training_graph.num_edges == len(split.train_positive)

    def test_negatives_are_non_edges(self, medium_graph):
        split = make_link_prediction_split(medium_graph, seed=2)
        for u, v in np.vstack([split.test_negative, split.train_negative]):
            assert not medium_graph.has_edge(int(u), int(v))

    def test_labels_and_pairs_layout(self, medium_graph):
        split = make_link_prediction_split(medium_graph, seed=3)
        labels, pairs = split.test_labels_and_pairs()
        assert labels.sum() == len(split.test_positive)
        assert len(labels) == len(pairs)
        np.testing.assert_array_equal(pairs[: len(split.test_positive)], split.test_positive)

    def test_deterministic_given_seed(self, medium_graph):
        a = make_link_prediction_split(medium_graph, seed=5)
        b = make_link_prediction_split(medium_graph, seed=5)
        np.testing.assert_array_equal(a.test_positive, b.test_positive)

    def test_invalid_fraction_or_tiny_graph(self, medium_graph):
        with pytest.raises(EvaluationError):
            make_link_prediction_split(medium_graph, test_fraction=0.0)
        tiny = Graph(4, [(0, 1), (1, 2)])
        with pytest.raises(EvaluationError):
            make_link_prediction_split(tiny)

    def test_untrained_endpoint_count_exposed_and_warned(self):
        # a 20-node ring plus a pendant node whose only edge, once held
        # out as a test positive, leaves the pendant untrained
        ring = [(i, (i + 1) % 20) for i in range(20)]
        lollipop = Graph(21, [*ring, (0, 20)], name="lollipop")
        saw_isolating, saw_clean = None, None
        for seed in range(400):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                split = make_link_prediction_split(lollipop, seed=seed)
            degree_of_pendant = split.training_graph.degree(20)
            if degree_of_pendant == 0 and saw_isolating is None:
                saw_isolating = (split, caught)
            elif degree_of_pendant > 0 and saw_clean is None:
                saw_clean = (split, caught)
            if saw_isolating and saw_clean:
                break
        assert saw_isolating is not None, "no seed isolated the pendant node"
        assert saw_clean is not None
        split, caught = saw_isolating
        assert split.untrained_test_endpoints >= 1
        assert any(
            issubclass(w.category, RuntimeWarning) and "no training edges" in str(w.message)
            for w in caught
        )
        clean_split, clean_caught = saw_clean
        assert clean_split.untrained_test_endpoints == 0
        assert not any("no training edges" in str(w.message) for w in clean_caught)

    def test_untrained_endpoints_default_zero_on_robust_graph(self, medium_graph):
        split = make_link_prediction_split(medium_graph, seed=0)
        assert split.untrained_test_endpoints >= 0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dataset", available_datasets())
class TestSplitMatchesLoopOracle:
    """The array split reads the same draws as the per-pair loops, bit for bit."""

    def test_split(self, dataset, seed):
        graph = load_dataset(dataset, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            split = make_link_prediction_split(graph, seed=seed)
        training, *pairs = split_oracle.link_prediction_split(graph, seed)
        assert split.training_graph == training
        got = (split.train_positive, split.train_negative,
               split.test_positive, split.test_negative)
        for array, expected in zip(got, pairs, strict=True):
            assert array.dtype == expected.dtype
            assert array.tobytes() == expected.tobytes()

    def test_non_edges_with_degenerate_excludes(self, dataset, seed):
        graph = load_dataset(dataset, seed=seed)
        n = graph.num_nodes
        rng = np.random.default_rng(seed)
        exclude = [
            (3, 3), (0, 0),                       # self-pairs
            (-1, 2), (n, 1), (5, n + 7),          # out of range
            *map(tuple, graph.edges[:5].tolist()),  # existing edges
            *((v, u) for u, v in graph.edges[5:8].tolist()),  # mirrored edges
            *map(tuple, rng.integers(0, n, size=(40, 2)).tolist()),
        ]
        for count, factor in ((n // 2, 200), (n, 1)):  # rejection, budget fallback
            got = graph.non_edges_sample(
                count, np.random.default_rng(seed), exclude=exclude,
                max_attempts_factor=factor,
            )
            expected = split_oracle.non_edges_sample(
                graph, count, np.random.default_rng(seed), exclude=exclude,
                max_attempts_factor=factor,
            )
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_subgraph_without_edges(self, dataset, seed):
        graph = load_dataset(dataset, seed=seed)
        n = graph.num_nodes
        removed = [
            (2, 2), (-3, 1), (0, n), (n + 1, n + 2),
            *((v, u) for u, v in graph.edges[::7].tolist()),
            *map(tuple, np.random.default_rng(seed).integers(0, n, size=(30, 2)).tolist()),
        ]
        assert graph.subgraph_without_edges(removed) == split_oracle.subgraph_without_edges(
            graph, removed
        )


def test_exact_complement_branch_matches_loop_oracle():
    """Dense sampling (available <= 4 * count) enumerates the complement."""
    graph = load_dataset("smallworld", num_nodes=40, seed=4)
    exclude = [(0, 0), (1, 50), *map(tuple, graph.edges[:3].tolist()), (0, 20), (20, 0)]
    count = (40 * 39 // 2 - graph.num_edges) // 3
    got = graph.non_edges_sample(count, np.random.default_rng(8), exclude=exclude)
    expected = split_oracle.non_edges_sample(
        graph, count, np.random.default_rng(8), exclude=exclude
    )
    assert got.tobytes() == expected.tobytes()


class TestScoreEdges:
    def test_dot_scorer(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        scores = score_edges(emb, np.array([[0, 2], [0, 1]]), scorer="dot")
        np.testing.assert_allclose(scores, [1.0, 0.0])

    def test_cosine_scorer_bounded(self, rng):
        emb = rng.normal(size=(10, 4))
        pairs = np.array([[i, (i + 1) % 10] for i in range(10)])
        scores = score_edges(emb, pairs, scorer="cosine")
        assert np.all(np.abs(scores) <= 1.0 + 1e-9)

    def test_negative_euclidean_ranks_close_pairs_higher(self):
        emb = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        scores = score_edges(emb, np.array([[0, 1], [0, 2]]), scorer="negative_euclidean")
        assert scores[0] > scores[1]

    def test_invalid_inputs(self, rng):
        emb = rng.normal(size=(5, 3))
        with pytest.raises(EvaluationError):
            score_edges(emb, np.zeros((3, 3), dtype=int))
        with pytest.raises(EvaluationError):
            score_edges(emb, np.array([[0, 1]]), scorer="manhattan")


class TestStructuralEquivalence:
    def test_adjacency_rows_give_high_score(self, medium_graph):
        """Embedding each node by its own adjacency row must recover structure well."""
        adjacency = np.asarray(medium_graph.adjacency_matrix(dense=True))
        score = structural_equivalence_score(medium_graph, adjacency)
        assert score > 0.9

    def test_random_embeddings_score_near_zero(self, medium_graph, rng):
        random_embeddings = rng.normal(size=(medium_graph.num_nodes, 16))
        score = structural_equivalence_score(medium_graph, random_embeddings)
        assert abs(score) < 0.25

    def test_sampled_pairs_close_to_exhaustive(self, medium_graph, rng):
        embeddings = rng.normal(size=(medium_graph.num_nodes, 8)) + np.asarray(
            medium_graph.adjacency_matrix(dense=True)
        )[:, :8]
        exact = structural_equivalence_score(medium_graph, embeddings, max_pairs=None)
        sampled = structural_equivalence_score(medium_graph, embeddings, max_pairs=3000, seed=0)
        assert abs(exact - sampled) < 0.1

    @pytest.mark.parametrize("dataset", ["chameleon", "smallworld", "blogcatalog"])
    def test_sampled_distances_equal_the_dense_formula(self, dataset):
        graph = load_dataset(dataset)
        n = graph.num_nodes
        rng = np.random.default_rng(5)
        i, j = rng.integers(0, n, size=(2, 5000))
        adjacency = np.asarray(graph.adjacency_matrix(dense=True), dtype=float)
        dense = np.linalg.norm(adjacency[i] - adjacency[j], axis=1)
        assert _adjacency_distances(graph, i, j).tobytes() == dense.tobytes()

        embeddings = rng.normal(size=(n, 8))
        pairs = np.random.default_rng(3)
        i, j = pairs.integers(0, n, size=4000), pairs.integers(0, n, size=4000)
        i, j = i[i != j], j[i != j]
        expected = pearson_correlation(
            np.linalg.norm(adjacency[i] - adjacency[j], axis=1),
            np.linalg.norm(embeddings[i] - embeddings[j], axis=1),
        )
        score = structural_equivalence_score(graph, embeddings, max_pairs=4000, seed=3)
        assert score == expected

    def test_sampled_score_builds_no_dense_adjacency(self):
        # 5k nodes: the dense float64 adjacency alone is 200 MB, and the
        # dense rows of 1000 sampled pairs 40 MB each side
        graph = load_dataset("smallworld", num_nodes=5000, seed=3)
        embeddings = np.random.default_rng(0).normal(size=(graph.num_nodes, 16))
        graph.adjacency_matrix()  # the graph's own lazy CSR, built outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            structural_equivalence_score(graph, embeddings, max_pairs=1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"sampled StrucEqu peaks at {peak / 2**20:.1f} MiB"

    def test_shape_mismatch_raises(self, medium_graph, rng):
        with pytest.raises(EvaluationError):
            structural_equivalence_score(medium_graph, rng.normal(size=(3, 4)))

    def test_link_prediction_auc_with_informative_embeddings(self, medium_graph):
        """Adjacency-row embeddings should beat random guessing on held-out links."""
        split = make_link_prediction_split(medium_graph, seed=0)
        adjacency = np.asarray(split.training_graph.adjacency_matrix(dense=True))
        auc = link_prediction_auc(adjacency, split, scorer="dot")
        assert auc > 0.6

    def test_link_prediction_auc_with_random_embeddings(self, medium_graph, rng):
        split = make_link_prediction_split(medium_graph, seed=0)
        auc = link_prediction_auc(rng.normal(size=(medium_graph.num_nodes, 8)), split)
        assert 0.3 < auc < 0.7

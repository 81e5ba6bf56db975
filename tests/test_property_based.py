"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro import Graph
from repro.evaluation import pearson_correlation, roc_auc_score
from repro.evaluation.metrics import average_ranks
from repro.privacy import RdpAccountant, clip_gradient, gaussian_rdp, rdp_to_dp
from repro.privacy.subsampling import subsampled_rdp
from repro.proximity import CommonNeighborsProximity, DegreeProximity, ProximityMatrix
from repro.serving import QueryEngine
from repro.utils.math import clip_norm, log_sigmoid, pairwise_euclidean, sigmoid
from topk_oracle import brute_force_topk


# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
@st.composite
def edge_lists(draw, max_nodes=12):
    """Random simple undirected graphs as (num_nodes, edge list)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=len(possible)))
    return n, edges


@st.composite
def tied_embeddings(draw, max_nodes=24):
    """Small matrices of a few base rows, so scores tie exactly.

    Entries come from {0.0, -0.0, ±1, ±2} and rows are scaled by 1 or 2 in
    at most 4 dimensions: every dot product is exact in float32, cosines
    that tie in real arithmetic also tie after rounding, and distinct
    cosines stay far more than a rounding error apart.
    """
    dim = draw(st.integers(min_value=1, max_value=4))
    entry = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
    pool = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=1, max_size=4))
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    rows = st.tuples(st.sampled_from(pool), st.sampled_from([1.0, 2.0]))
    picks = draw(st.lists(rows, min_size=n, max_size=n))
    return np.array([np.array(row) * scale for row, scale in picks])


finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=30,
)


# --------------------------------------------------------------------------- #
# graph invariants
# --------------------------------------------------------------------------- #
class TestGraphProperties:
    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_degree_sum_equals_twice_edges(self, data):
        n, edges = data
        graph = Graph(n, edges)
        assert int(graph.degrees().sum()) == 2 * graph.num_edges

    @given(edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_adjacency_symmetric_and_matches_has_edge(self, data):
        n, edges = data
        graph = Graph(n, edges)
        dense = graph.adjacency_matrix(dense=True)
        np.testing.assert_allclose(dense, dense.T)
        for i in range(n):
            for j in range(n):
                assert bool(dense[i, j]) == graph.has_edge(i, j)

    @given(edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_neighbors_consistent_with_edges(self, data):
        n, edges = data
        graph = Graph(n, edges)
        for node in range(n):
            for neighbor in graph.neighbors(node):
                assert graph.has_edge(node, int(neighbor))


# --------------------------------------------------------------------------- #
# proximity invariants
# --------------------------------------------------------------------------- #
class TestProximityProperties:
    @given(edge_lists())
    @settings(max_examples=25, deadline=None)
    def test_common_neighbors_symmetric_nonnegative(self, data):
        n, edges = data
        graph = Graph(n, edges)
        matrix = CommonNeighborsProximity().compute(graph).matrix
        assert np.all(matrix >= 0)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0)

    @given(edge_lists(), st.integers(min_value=1, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_theorem3_optimum_scale_invariance(self, data, k):
        """Eq. (10) depends only on p_ij / min(P): rescaling P never changes it."""
        n, edges = data
        graph = Graph(n, edges)
        matrix = DegreeProximity().compute(graph).matrix
        if matrix.max() <= 0:
            return
        base = ProximityMatrix(matrix)
        scaled = ProximityMatrix(matrix * 3.7)
        for u, v in graph.edges[: min(5, graph.num_edges)]:
            assert base.theoretical_optimal_inner_product(int(u), int(v), k) == pytest.approx(
                scaled.theoretical_optimal_inner_product(int(u), int(v), k), rel=1e-9
            )


# --------------------------------------------------------------------------- #
# privacy invariants
# --------------------------------------------------------------------------- #
class TestPrivacyProperties:
    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=0.001, max_value=1.0),
        st.floats(min_value=1.5, max_value=64.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_subsampling_never_hurts(self, sigma, gamma, alpha):
        rdp_at = lambda a: a / (2.0 * sigma**2)
        assert subsampled_rdp(alpha, gamma, rdp_at) <= rdp_at(alpha) + 1e-12

    @given(
        st.floats(min_value=0.5, max_value=20.0),
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_rdp_composition_is_additive_in_epsilon(self, sigma, steps_a, steps_b):
        acc = RdpAccountant(noise_multiplier=sigma, sampling_rate=0.05)
        acc.step(steps_a)
        eps_a = acc.get_privacy_spent(1e-5).epsilon
        acc.step(steps_b)
        eps_ab = acc.get_privacy_spent(1e-5).epsilon
        assert eps_ab >= eps_a - 1e-12

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40),
           st.floats(min_value=0.01, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_clipping_bounds_norm(self, values, threshold):
        clipped = clip_gradient(np.array(values), threshold)
        assert np.linalg.norm(clipped) <= threshold * (1 + 1e-9)

    @given(st.floats(min_value=0.5, max_value=30.0), st.floats(min_value=1e-8, max_value=0.1))
    @settings(max_examples=40, deadline=None)
    def test_rdp_to_dp_epsilon_positive(self, sigma, delta):
        curve = gaussian_rdp(sigma, [2.0, 8.0, 32.0])
        eps, alpha = rdp_to_dp(curve, [2.0, 8.0, 32.0], delta)
        assert eps > 0
        assert alpha in (2.0, 8.0, 32.0)


# --------------------------------------------------------------------------- #
# serving invariants
# --------------------------------------------------------------------------- #
class TestServingProperties:
    @given(tied_embeddings(), st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=24),
           st.sampled_from(["cosine", "dot"]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_top_k_matches_brute_force(self, E, block_rows, max_batch, k, metric,
                                       exclude_self):
        nodes = np.arange(E.shape[0])
        expected, _ = brute_force_topk(E, nodes, k, metric=metric, exclude_self=exclude_self)
        for dtype in ("float32", "float64"):
            engine = QueryEngine(E.astype(dtype), block_rows=block_rows,
                                 max_batch=max_batch)
            result = engine.top_k(nodes, k, metric=metric, exclude_self=exclude_self)
            assert np.array_equal(result.ids, expected), dtype


# --------------------------------------------------------------------------- #
# math / metric invariants
# --------------------------------------------------------------------------- #
class TestMathProperties:
    @given(finite_vectors)
    @settings(max_examples=60, deadline=None)
    def test_sigmoid_in_unit_interval(self, values):
        out = sigmoid(np.array(values))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    @given(finite_vectors)
    @settings(max_examples=60, deadline=None)
    def test_log_sigmoid_nonpositive(self, values):
        out = log_sigmoid(np.array(values))
        assert np.all(out <= 1e-12)
        assert np.all(np.isfinite(out))

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=20),
           st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_pearson_bounded(self, xs, ys):
        size = min(len(xs), len(ys))
        value = pearson_correlation(np.array(xs[:size]), np.array(ys[:size]))
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_auc_complement_symmetry(self, size, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=size)
        if labels.sum() in (0, size):
            return
        scores = rng.normal(size=size)
        auc = roc_auc_score(labels, scores)
        flipped = roc_auc_score(labels, -scores)
        assert auc + flipped == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_average_ranks_match_scipy_with_forced_ties(self, pool, seed):
        # draw every element from a small pool, so most values repeat
        rng = np.random.default_rng(seed)
        values = np.asarray(pool)[rng.integers(0, min(len(pool), 5), size=2 * len(pool))]
        assert average_ranks(values).tobytes() == stats.rankdata(values).tobytes()

    @given(st.integers(min_value=2, max_value=15), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_pairwise_euclidean_triangle_inequality(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, dim))
        d = pairwise_euclidean(x)
        i, j, k = rng.integers(0, n, size=3)
        assert d[i, k] <= d[i, j] + d[j, k] + 1e-8

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=20),
           st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=40, deadline=None)
    def test_clip_norm_is_idempotent(self, values, threshold):
        v = np.array(values)
        once = clip_norm(v, threshold)
        twice = clip_norm(once, threshold)
        np.testing.assert_allclose(once, twice, atol=1e-12)

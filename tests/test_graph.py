"""Tests for the core Graph data structure."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro import Graph, GraphError
from repro.graph import load_dataset
from repro.graph.validation import validate_simple_graph


class TestConstruction:
    def test_basic_properties(self, triangle_graph):
        assert triangle_graph.num_nodes == 4
        assert triangle_graph.num_edges == 4
        assert len(triangle_graph) == 4
        assert list(iter(triangle_graph)) == [0, 1, 2, 3]

    def test_duplicate_and_mirrored_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
        assert g.num_edges == 2

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 5)])

    def test_rejects_non_positive_node_count(self):
        with pytest.raises(GraphError):
            Graph(0, [])

    def test_from_edge_list_infers_node_count(self):
        g = Graph.from_edge_list([(0, 3), (1, 2)])
        assert g.num_nodes == 4

    def test_from_edge_list_empty_requires_num_nodes(self):
        with pytest.raises(GraphError):
            Graph.from_edge_list([])
        g = Graph.from_edge_list([], num_nodes=5)
        assert g.num_edges == 0


class TestAccessors:
    def test_degrees(self, triangle_graph):
        np.testing.assert_array_equal(triangle_graph.degrees(), [3, 2, 2, 1])
        assert triangle_graph.degree(0) == 3
        assert triangle_graph.degree(3) == 1

    def test_neighbors_sorted(self, triangle_graph):
        np.testing.assert_array_equal(triangle_graph.neighbors(0), [1, 2, 3])
        np.testing.assert_array_equal(triangle_graph.neighbors(3), [0])

    def test_has_edge(self, triangle_graph):
        assert triangle_graph.has_edge(0, 1)
        assert triangle_graph.has_edge(1, 0)
        assert not triangle_graph.has_edge(1, 3)
        assert not triangle_graph.has_edge(2, 2)

    def test_has_edges_bulk_matches_scalar(self, small_graph, rng):
        u = rng.integers(0, small_graph.num_nodes, 500)
        v = rng.integers(0, small_graph.num_nodes, 500)
        bulk = small_graph.has_edges_bulk(u, v)
        scalar = np.array([small_graph.has_edge(int(a), int(b)) for a, b in zip(u, v, strict=True)])
        np.testing.assert_array_equal(bulk, scalar)
        # both directions of a known edge, and self-pairs, behave like has_edge
        edge = small_graph.edges[0]
        np.testing.assert_array_equal(
            small_graph.has_edges_bulk(
                np.array([edge[0], edge[1], 0]), np.array([edge[1], edge[0], 0])
            ),
            [True, True, False],
        )

    def test_has_edges_bulk_rejects_out_of_range(self, small_graph):
        n = small_graph.num_nodes
        # (0, n) would alias to key (1, 0) through row*n+col arithmetic
        with pytest.raises(GraphError):
            small_graph.has_edges_bulk(np.array([0]), np.array([n]))
        with pytest.raises(GraphError):
            small_graph.has_edges_bulk(np.array([-1]), np.array([0]))

    def test_node_out_of_range_raises(self, triangle_graph):
        with pytest.raises(GraphError):
            triangle_graph.degree(99)
        with pytest.raises(GraphError):
            triangle_graph.neighbors(-1)

    def test_adjacency_matrix_symmetric_zero_diagonal(self, triangle_graph):
        adj = triangle_graph.adjacency_matrix()
        assert sparse.issparse(adj)
        dense = triangle_graph.adjacency_matrix(dense=True)
        np.testing.assert_allclose(dense, dense.T)
        np.testing.assert_allclose(np.diag(dense), np.zeros(4))
        assert dense.sum() == 2 * triangle_graph.num_edges

    def test_density(self, triangle_graph):
        assert triangle_graph.density == pytest.approx(4 / 6)

    def test_edges_are_canonical(self, triangle_graph):
        edges = triangle_graph.edges
        assert np.all(edges[:, 0] < edges[:, 1])


class TestOperations:
    def test_subgraph_without_edges(self, triangle_graph):
        pruned = triangle_graph.subgraph_without_edges([(0, 1)])
        assert pruned.num_edges == 3
        assert not pruned.has_edge(0, 1)
        assert pruned.num_nodes == triangle_graph.num_nodes

    def test_with_extra_edges(self, path_graph):
        augmented = path_graph.with_extra_edges([(0, 4)])
        assert augmented.num_edges == path_graph.num_edges + 1
        assert augmented.has_edge(0, 4)

    def test_remove_node_edges(self, star_graph):
        removed = star_graph.remove_node_edges(0)
        assert removed.num_edges == 0
        assert removed.num_nodes == star_graph.num_nodes

    def test_connected_components(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4)])
        components = g.connected_components()
        sizes = sorted(len(c) for c in components)
        assert sizes == [1, 2, 3]
        assert len(components[0]) == 3  # largest first

    def test_non_edges_sample(self, path_graph, rng):
        non_edges = path_graph.non_edges_sample(3, rng)
        assert non_edges.shape == (3, 2)
        for u, v in non_edges:
            assert not path_graph.has_edge(int(u), int(v))
            assert u != v

    def test_non_edges_sample_exhaustion_raises(self, rng):
        complete = Graph(3, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(GraphError):
            complete.non_edges_sample(1, rng)

    def test_non_edges_sample_preserves_draw_order(self):
        # the old implementation returned sorted(found): a prefix slice was
        # biased toward low node indices instead of reflecting draw order
        graph = load_dataset("smallworld", num_nodes=100, seed=4)
        sample = graph.non_edges_sample(150, np.random.default_rng(0))
        rows = [tuple(int(x) for x in row) for row in sample]
        assert rows != sorted(rows)
        assert len(set(rows)) == len(rows)

    def test_non_edges_sample_is_deterministic_given_rng(self):
        graph = load_dataset("smallworld", num_nodes=80, seed=4)
        a = graph.non_edges_sample(40, np.random.default_rng(9))
        b = graph.non_edges_sample(40, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_non_edges_sample_rows_are_canonical(self):
        graph = load_dataset("smallworld", num_nodes=60, seed=4)
        sample = graph.non_edges_sample(30, np.random.default_rng(1))
        assert np.all(sample[:, 0] < sample[:, 1])

    def test_non_edges_sample_dense_graph_succeeds(self):
        # a near-complete graph used to exhaust the attempt budget and
        # raise spuriously; the exact-complement fallback must succeed
        # whenever enough non-edges exist at all
        n = 40
        missing = {(i, (i + 1) % n) for i in range(n)}
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in missing and (v, u) not in missing
        ]
        dense = Graph(n, edges)
        assert dense.density > 0.9
        want = n * (n - 1) // 2 - dense.num_edges
        sample = dense.non_edges_sample(want, np.random.default_rng(2))
        assert sample.shape == (want, 2)
        for u, v in sample:
            assert not dense.has_edge(int(u), int(v))

    def test_non_edges_sample_dense_graph_respects_exclude(self):
        complete_minus_two = Graph(
            5, [(u, v) for u in range(5) for v in range(u + 1, 5)][:-2]
        )
        remaining = complete_minus_two.non_edges_sample(2, np.random.default_rng(0))
        excluded = [tuple(int(x) for x in remaining[0])]
        sample = complete_minus_two.non_edges_sample(
            1, np.random.default_rng(0), exclude=excluded
        )
        assert tuple(int(x) for x in sample[0]) != excluded[0]

    def test_non_edges_sample_zero_count(self, path_graph, rng):
        sample = path_graph.non_edges_sample(0, rng)
        assert sample.shape == (0, 2)

    def test_non_edges_sample_negative_count_raises(self, path_graph, rng):
        with pytest.raises(GraphError):
            path_graph.non_edges_sample(-1, rng)

    def test_non_edges_sample_counts_exclude_against_capacity(self, rng):
        # 4 nodes, path 0-1-2-3: non-edges are (0,2), (0,3), (1,3)
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(GraphError):
            path.non_edges_sample(3, rng, exclude=[(0, 2)])
        sample = path.non_edges_sample(2, rng, exclude=[(0, 2)])
        assert {tuple(int(x) for x in row) for row in sample} == {(0, 3), (1, 3)}

    def test_non_edges_sample_ignores_degenerate_excludes(self, rng):
        # self-pairs, out-of-range pairs and existing edges in the exclude
        # list can never be drawn, so they must not count against capacity
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sample = path.non_edges_sample(3, rng, exclude=[(1, 1), (0, 9), (0, 1)])
        assert {tuple(int(x) for x in row) for row in sample} == {(0, 2), (0, 3), (1, 3)}

    def test_equality(self, triangle_graph):
        same = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert triangle_graph == same
        other = Graph(4, [(0, 1), (1, 2), (0, 2)])
        assert triangle_graph != other


class TestValidation:
    def test_valid_graph_passes(self, triangle_graph):
        validate_simple_graph(triangle_graph)

    def test_empty_graph_fails_by_default(self):
        g = Graph(3, [])
        with pytest.raises(GraphError):
            validate_simple_graph(g)
        validate_simple_graph(g, require_edges=False)

"""Tests for Algorithm 1 (disjoint subgraphs) and the negative samplers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph, GraphError, SubgraphBatch, TrainingError
from repro.graph.sampling import (
    ProximityNegativeSampler,
    SubgraphSampler,
    UnigramNegativeSampler,
    generate_disjoint_subgraph_arrays,
)
from repro.proximity import DeepWalkProximity


class TestUnigramNegativeSampler:
    def test_negatives_are_never_neighbors(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, seed=0)
        for node in range(0, small_graph.num_nodes, 7):
            negatives = sampler.sample_negatives_bulk(np.array([node]), 5)[0]
            assert negatives.shape == (5,)
            neighbor_set = set(small_graph.neighbors(node).tolist())
            for neg in negatives:
                assert int(neg) not in neighbor_set
                assert int(neg) != node

    def test_higher_degree_nodes_sampled_more_often(self, star_graph):
        # In a star the centre has degree 5, leaves degree 1; sampling negatives
        # for a leaf should hit the centre more often than any other leaf.
        sampler = UnigramNegativeSampler(star_graph, power=1.0, seed=0)
        counts = np.zeros(star_graph.num_nodes)
        for _ in range(300):
            negatives = sampler.sample_negatives_bulk(np.array([1]), 1)[0]
            counts[negatives[0]] += 1
        # node 0 (centre) is a neighbour of node 1, so it can never appear;
        # remaining mass is spread over the other leaves roughly uniformly.
        assert counts[0] == 0
        assert counts[1] == 0

    def test_complete_graph_raises(self):
        complete = Graph(3, [(0, 1), (0, 2), (1, 2)])
        sampler = UnigramNegativeSampler(complete, seed=0)
        with pytest.raises(GraphError):
            sampler.sample_negatives_bulk(np.array([0]), 1)

    def test_rejects_negative_count(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, seed=0)
        with pytest.raises(GraphError):
            sampler.sample_negatives_bulk(np.array([0]), -1)


class TestProximityNegativeSampler:
    def test_negative_probability_formula(self, small_graph):
        proximity = DeepWalkProximity(window_size=2).compute(small_graph)
        sampler = ProximityNegativeSampler(
            small_graph,
            proximity_row_sums=proximity.row_sums,
            min_positive_proximity=proximity.min_positive,
            seed=0,
        )
        node = 0
        mass = sampler.min_positive_proximity / sampler.row_sums[node]
        assert mass == pytest.approx(proximity.min_positive / proximity.row_sums[node])
        # Theorem 3 requires the mass to be a valid probability.
        assert 0.0 < mass < 1.0

    def test_samples_avoid_neighbors(self, small_graph):
        proximity = DeepWalkProximity(window_size=2).compute(small_graph)
        sampler = ProximityNegativeSampler(
            small_graph, proximity.row_sums, proximity.min_positive, seed=1
        )
        negatives = sampler.sample_negatives_bulk(np.array([3]), 10)[0]
        neighbor_set = set(small_graph.neighbors(3).tolist())
        assert all(int(n) not in neighbor_set for n in negatives)

    def test_rejects_bad_inputs(self, small_graph):
        proximity = DeepWalkProximity(window_size=2).compute(small_graph)
        with pytest.raises(GraphError):
            ProximityNegativeSampler(small_graph, proximity.row_sums[:-1], 0.1)
        with pytest.raises(GraphError):
            ProximityNegativeSampler(small_graph, proximity.row_sums, 0.0)


class TestBulkNegativeSampling:
    def test_bulk_shape_and_validity(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, seed=0)
        centers = small_graph.edges[:, 0]
        negatives = sampler.sample_negatives_bulk(centers, 4)
        assert negatives.shape == (centers.shape[0], 4)
        for row, center in enumerate(centers):
            neighbor_set = set(small_graph.neighbors(int(center)).tolist())
            for neg in negatives[row]:
                assert int(neg) not in neighbor_set
                assert int(neg) != int(center)

    def test_bulk_deterministic_per_seed(self, small_graph):
        centers = small_graph.edges[:20, 0]
        first = UnigramNegativeSampler(small_graph, seed=7).sample_negatives_bulk(centers, 3)
        second = UnigramNegativeSampler(small_graph, seed=7).sample_negatives_bulk(centers, 3)
        np.testing.assert_array_equal(first, second)

    def test_bulk_zero_count(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, seed=0)
        assert sampler.sample_negatives_bulk(np.array([0, 1]), 0).shape == (2, 0)

    def test_from_proximity_reads_theorem3_quantities(self, small_graph):
        proximity = DeepWalkProximity(window_size=2).compute(small_graph)
        sampler = ProximityNegativeSampler.from_proximity(small_graph, proximity, seed=0)
        assert sampler.min_positive_proximity / sampler.row_sums[0] == pytest.approx(
            proximity.negative_sampling_mass(0)
        )


class TestGenerateDisjointSubgraphs:
    def test_one_subgraph_per_edge(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, seed=0)
        pool = generate_disjoint_subgraph_arrays(small_graph, sampler, num_negatives=4)
        assert len(pool) == small_graph.num_edges
        assert pool.negatives.shape == (small_graph.num_edges, 4)
        for center, positive, negatives in zip(
            pool.centers, pool.positives, pool.negatives, strict=True
        ):
            assert small_graph.has_edge(int(center), int(positive))
            for neg in negatives:
                assert not small_graph.has_edge(int(center), int(neg))

    def test_all_context_nodes_layout(self):
        batch = SubgraphBatch(centers=np.array([0]), contexts=np.array([[1, 2, 3]]))
        np.testing.assert_array_equal(batch.positives, [1])
        np.testing.assert_array_equal(batch.negatives, [[2, 3]])
        assert batch.num_negatives == 2

    def test_rejects_bad_k_and_empty_graph(self, small_graph):
        sampler = UnigramNegativeSampler(small_graph, seed=0)
        with pytest.raises(GraphError):
            generate_disjoint_subgraph_arrays(small_graph, sampler, num_negatives=0)
        empty = Graph(3, [])
        with pytest.raises(GraphError):
            generate_disjoint_subgraph_arrays(empty, UnigramNegativeSampler(empty, seed=0), 2)


class TestSubgraphSampler:
    def _subgraphs(self, graph, k=3):
        sampler = UnigramNegativeSampler(graph, seed=0)
        return generate_disjoint_subgraph_arrays(graph, sampler, num_negatives=k)

    def test_sampling_rate(self, small_graph):
        subgraphs = self._subgraphs(small_graph)
        sampler = SubgraphSampler(subgraphs, batch_size=16, seed=0)
        assert sampler.sampling_rate == pytest.approx(16 / len(subgraphs))
        assert len(sampler) == len(subgraphs)

    def test_batch_without_replacement(self, small_graph):
        subgraphs = self._subgraphs(small_graph)
        sampler = SubgraphSampler(subgraphs, batch_size=20, seed=0)
        indices = sampler.sample_indices()
        assert len(indices) == 20
        assert len(set(indices.tolist())) == 20

    def test_batch_larger_than_population_is_capped(self, path_graph):
        subgraphs = self._subgraphs(path_graph, k=1)
        sampler = SubgraphSampler(subgraphs, batch_size=100, seed=0)
        assert sampler.batch_size == len(subgraphs)
        assert sampler.sampling_rate == pytest.approx(1.0)

    def test_rejects_empty_subgraphs_or_bad_batch(self, small_graph):
        with pytest.raises(TrainingError):  # an empty pool cannot be built
            SubgraphBatch(centers=np.zeros(0), contexts=np.zeros((0, 4)))
        subgraphs = self._subgraphs(small_graph)
        with pytest.raises(GraphError):
            SubgraphSampler(subgraphs, batch_size=0)

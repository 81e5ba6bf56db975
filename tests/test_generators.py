"""Tests for the synthetic graph generators."""

from __future__ import annotations

import numpy as np
import pytest

import generator_oracle
from repro import ConfigurationError, GraphError
from repro.graph.generators import (
    _Pcg64Words,
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_with_rewiring_graph,
    powerlaw_cluster_graph,
    stochastic_block_model_graph,
    watts_strogatz_graph,
)
from repro.graph.validation import validate_simple_graph


class TestErdosRenyi:
    def test_extreme_probabilities(self):
        empty = erdos_renyi_graph(10, 0.0, seed=0)
        full = erdos_renyi_graph(10, 1.0, seed=0)
        assert empty.num_edges == 0
        assert full.num_edges == 45

    def test_edge_count_close_to_expectation(self):
        g = erdos_renyi_graph(100, 0.1, seed=0)
        expected = 0.1 * 100 * 99 / 2
        assert abs(g.num_edges - expected) < 0.35 * expected

    def test_determinism(self):
        a = erdos_renyi_graph(30, 0.2, seed=3)
        b = erdos_renyi_graph(30, 0.2, seed=3)
        assert a == b

    def test_rejects_bad_probability(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(10, 1.5)


class TestBarabasiAlbert:
    def test_node_and_edge_counts(self):
        g = barabasi_albert_graph(50, 3, seed=1)
        assert g.num_nodes == 50
        # each of the 47 added nodes contributes m=3 edges
        assert g.num_edges == 47 * 3
        validate_simple_graph(g)

    def test_heavy_tailed_degrees(self):
        g = barabasi_albert_graph(200, 2, seed=2)
        degrees = g.degrees()
        assert degrees.max() > 3 * np.median(degrees)

    def test_rejects_m_not_smaller_than_n(self):
        with pytest.raises(GraphError):
            barabasi_albert_graph(3, 3)
        with pytest.raises(GraphError):
            barabasi_albert_graph(10, 0)

    def test_sequential_stream_is_pinned(self):
        # the default method must keep producing the exact historical graph
        # for a given seed; this pin guards the vectorised-batched addition
        g = barabasi_albert_graph(60, 2, seed=9)
        explicit = barabasi_albert_graph(60, 2, seed=9, method="sequential")
        assert np.array_equal(g.edges, explicit.edges)
        digest = tuple(map(int, g.edges[:5].ravel()))
        assert digest == (0, 2, 0, 3, 0, 4, 0, 7, 0, 8)

    def test_batched_method_is_valid_and_deterministic(self):
        g1 = barabasi_albert_graph(400, 3, seed=4, method="batched")
        g2 = barabasi_albert_graph(400, 3, seed=4, method="batched")
        validate_simple_graph(g1)
        assert np.array_equal(g1.edges, g2.edges)
        assert g1.num_nodes == 400
        # within-batch collisions may drop a few attachments but never many
        assert g1.num_edges > 0.9 * (400 - 3) * 3

    def test_batched_heavy_tailed_degrees(self):
        g = barabasi_albert_graph(2000, 2, seed=5, method="batched")
        degrees = g.degrees()
        assert degrees.max() > 5 * np.median(degrees)

    def test_batched_differs_from_sequential_stream(self):
        seq = barabasi_albert_graph(300, 3, seed=4)
        bat = barabasi_albert_graph(300, 3, seed=4, method="batched")
        assert not np.array_equal(seq.edges, bat.edges)

    def test_rejects_unknown_method(self):
        with pytest.raises(GraphError):
            barabasi_albert_graph(10, 2, method="magic")


class TestWattsStrogatz:
    def test_no_rewiring_keeps_ring_degree(self):
        g = watts_strogatz_graph(20, 4, 0.0, seed=0)
        np.testing.assert_array_equal(g.degrees(), np.full(20, 4))

    def test_rewiring_preserves_edge_count_approximately(self):
        base = watts_strogatz_graph(50, 4, 0.0, seed=0)
        rewired = watts_strogatz_graph(50, 4, 0.5, seed=0)
        assert abs(rewired.num_edges - base.num_edges) <= base.num_edges * 0.1
        validate_simple_graph(rewired)

    def test_rejects_odd_or_too_large_k(self):
        with pytest.raises(GraphError):
            watts_strogatz_graph(10, 3, 0.1)
        with pytest.raises(GraphError):
            watts_strogatz_graph(4, 6, 0.1)


def _same_as_loop(num_nodes, k, p, seed, *, buffered=False):
    """Build one graph both ways; True when edges and end states agree."""
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # leaves the high 32-bit half of one word in the buffer
        for rng in rngs:
            rng.integers(0, 10)
    got = watts_strogatz_graph(num_nodes, k, p, seed=rngs[0])
    want = generator_oracle.watts_strogatz_graph(num_nodes, k, p, rngs[1])
    return (
        np.array_equal(got.edges, want.edges)
        and rngs[0].bit_generator.state == rngs[1].bit_generator.state
    )


class TestWattsStrogatzReplay:
    """The raw-word replay against the per-edge loop it replaced."""

    @pytest.mark.parametrize("num_nodes", [8, 12, 20, 40, 160, 400, 1000, 3000])
    def test_matches_the_per_edge_loop(self, num_nodes):
        mismatches = [
            (k, p, seed, buffered)
            for k in (4, 6, 8)
            if k < num_nodes
            for p in (0.0, 0.05, 0.2, 0.9, 1.0)
            for seed in range(4)
            for buffered in (False, True)
            if not _same_as_loop(num_nodes, k, p, seed, buffered=buffered)
        ]
        assert mismatches == []

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_the_loop_on_the_benchmark_graphs(self, seed):
        assert _same_as_loop(20_000, 6, 0.2, seed)

    def test_matches_the_loop_when_every_try_fails(self):
        # 24 of the 28 pairs are lattice edges, so at most 4 of the 24 rewire
        # events find a fresh pair; the rest exhaust 50 tries and keep theirs
        g = watts_strogatz_graph(8, 6, 1.0, seed=0)
        lattice = watts_strogatz_graph(8, 6, 0.0, seed=0)
        kept = {tuple(e) for e in g.edges.tolist()} & {tuple(e) for e in lattice.edges.tolist()}
        assert len(kept) >= 20
        assert _same_as_loop(8, 6, 1.0, 0)

    def test_bounded_int_replay_matches_generator_integers(self):
        n = 2**31 + 1  # rejects about half of all 32-bit values
        rng = np.random.default_rng(5)
        bitgen = np.random.PCG64(5)
        words = _Pcg64Words(bitgen, below=0.0)
        got = [words.integer(n) for _ in range(2000)]
        want = [int(rng.integers(0, n)) for _ in range(2000)]
        assert got == want
        halves = 2 * words.pos - int(rng.bit_generator.state["has_uint32"])
        assert 0.4 < (halves - 2000) / halves < 0.6
        words.finish()
        assert bitgen.state == rng.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
    def test_refuses_other_bit_generators(self, bit_generator):
        with pytest.raises(ConfigurationError, match="PCG64"):
            watts_strogatz_graph(20, 4, 0.2, seed=np.random.Generator(bit_generator(0)))


class TestPowerlawCluster:
    def test_basic_shape_and_validity(self):
        g = powerlaw_cluster_graph(80, 4, 0.5, seed=4)
        assert g.num_nodes == 80
        assert g.num_edges >= 76 * 4  # triangle closure adds extra edges
        validate_simple_graph(g)

    def test_triangle_probability_increases_clustering(self):
        flat = powerlaw_cluster_graph(120, 3, 0.0, seed=6)
        clustered = powerlaw_cluster_graph(120, 3, 0.9, seed=6)
        assert clustered.num_edges >= flat.num_edges

    def test_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            powerlaw_cluster_graph(10, 0, 0.5)
        with pytest.raises(GraphError):
            powerlaw_cluster_graph(10, 2, 1.5)


class TestStochasticBlockModel:
    def test_intra_block_denser_than_inter(self):
        g = stochastic_block_model_graph([40, 40], 0.3, 0.01, seed=7)
        adjacency = np.asarray(g.adjacency_matrix(dense=True))
        intra = adjacency[:40, :40].sum() + adjacency[40:, 40:].sum()
        inter = adjacency[:40, 40:].sum() * 2
        assert intra > inter

    def test_rejects_empty_or_negative_blocks(self):
        with pytest.raises(GraphError):
            stochastic_block_model_graph([], 0.1, 0.1)
        with pytest.raises(GraphError):
            stochastic_block_model_graph([5, -1], 0.1, 0.1)


class TestGrid:
    def test_pure_grid_edge_count(self):
        g = grid_with_rewiring_graph(5, 4, 0.0)
        # rows*(cols-1) + cols*(rows-1) = 5*3 + 4*4 = 31
        assert g.num_edges == 31
        assert g.num_nodes == 20

    def test_rewired_grid_stays_valid(self):
        g = grid_with_rewiring_graph(8, 8, 0.2, seed=9)
        validate_simple_graph(g)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(GraphError):
            grid_with_rewiring_graph(0, 5)

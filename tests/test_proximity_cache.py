"""Tests for the proximity cache (content keys, tiers, invalidation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph, ProximityError
from repro.proximity import (
    DeepWalkProximity,
    DegreeProximity,
    ProximityCache,
    compute_proximity,
    default_proximity_cache,
    graph_fingerprint,
)


def _non_edge(graph: Graph) -> tuple[int, int]:
    """First node pair that is not an edge (so mutation helpers really mutate)."""
    for u in range(graph.num_nodes):
        for v in range(u + 1, graph.num_nodes):
            if not graph.has_edge(u, v):
                return (u, v)
    raise AssertionError("graph is complete")


class TestGraphFingerprint:
    def test_deterministic_and_name_independent(self, small_graph):
        copy = Graph(small_graph.num_nodes, small_graph.edges, name="other-name")
        assert graph_fingerprint(small_graph) == graph_fingerprint(copy)

    def test_changes_with_edges_and_num_nodes(self, small_graph):
        mutated = small_graph.with_extra_edges([_non_edge(small_graph)])
        pruned = small_graph.subgraph_without_edges([tuple(small_graph.edges[0])])
        padded = Graph(small_graph.num_nodes + 1, small_graph.edges)
        fingerprints = {
            graph_fingerprint(g) for g in (small_graph, mutated, pruned, padded)
        }
        assert len(fingerprints) == 4


class TestMemoryTier:
    def test_hit_returns_same_object(self, small_graph):
        cache = ProximityCache()
        measure = DeepWalkProximity(window_size=3)
        first = cache.get_or_compute(measure, small_graph)
        second = cache.get_or_compute(measure, small_graph)
        assert second is first
        assert cache.misses == 1 and cache.hits == 1

    def test_equal_parameters_share_entries_across_instances(self, small_graph):
        cache = ProximityCache()
        first = cache.get_or_compute(DeepWalkProximity(window_size=3), small_graph)
        second = cache.get_or_compute(DeepWalkProximity(window_size=3), small_graph)
        assert second is first

    def test_different_parameters_miss(self, small_graph):
        cache = ProximityCache()
        cache.get_or_compute(DeepWalkProximity(window_size=3), small_graph)
        cache.get_or_compute(DeepWalkProximity(window_size=4), small_graph)
        assert cache.misses == 2 and cache.hits == 0

    def test_backend_is_part_of_the_key(self, small_graph):
        cache = ProximityCache()
        sparse_prox = cache.get_or_compute(
            DegreeProximity(), small_graph, sparse=True
        )
        dense_prox = cache.get_or_compute(
            DegreeProximity(), small_graph, sparse=False
        )
        assert sparse_prox.is_sparse and not dense_prox.is_sparse
        assert cache.misses == 2

    def test_graph_mutation_invalidates_by_content(self, small_graph):
        cache = ProximityCache()
        measure = DegreeProximity()
        cache.get_or_compute(measure, small_graph)
        mutated = small_graph.with_extra_edges([_non_edge(small_graph)])
        recomputed = cache.get_or_compute(measure, mutated)
        assert cache.misses == 2  # the mutated graph cannot hit the stale entry
        assert recomputed.num_nodes == mutated.num_nodes

    def test_explicit_invalidate_drops_all_entries_of_a_graph(self, small_graph):
        cache = ProximityCache()
        cache.get_or_compute(DegreeProximity(), small_graph)
        cache.get_or_compute(DeepWalkProximity(window_size=2), small_graph)
        assert len(cache) == 2
        removed = cache.invalidate(small_graph)
        assert removed == 2 and len(cache) == 0
        cache.get_or_compute(DegreeProximity(), small_graph)
        assert cache.misses == 3

    def test_lru_bound(self, small_graph):
        cache = ProximityCache(max_memory_items=2)
        for window in (2, 3, 4):
            cache.get_or_compute(DeepWalkProximity(window_size=window), small_graph)
        assert len(cache) == 2
        # window=2 was evicted, windows 3 and 4 survive
        assert cache.get(DeepWalkProximity(window_size=4), small_graph) is not None
        assert cache.get(DeepWalkProximity(window_size=2), small_graph) is None

    def test_byte_budget_evicts_lru_but_keeps_newest(self, small_graph):
        probe = ProximityCache()
        one_entry = probe.get_or_compute(DeepWalkProximity(window_size=2), small_graph).nbytes
        cache = ProximityCache(max_memory_bytes=int(one_entry * 1.5))
        for window in (2, 3):
            cache.get_or_compute(DeepWalkProximity(window_size=window), small_graph)
        assert len(cache) == 1  # budget fits one entry: LRU evicted
        assert cache.get(DeepWalkProximity(window_size=3), small_graph) is not None
        # a single oversized entry is still cached (cache of one)
        tiny = ProximityCache(max_memory_bytes=1)
        kept = tiny.get_or_compute(DeepWalkProximity(window_size=2), small_graph)
        assert tiny.get_or_compute(DeepWalkProximity(window_size=2), small_graph) is kept

    def test_byte_accounting_survives_lazy_key_growth(self, small_graph):
        cache = ProximityCache()
        # CSR-backed entry: pair lookups build the lazy key array afterwards
        prox = cache.get_or_compute(DegreeProximity(), small_graph)
        assert prox.is_sparse
        before = prox.nbytes
        prox.pair_value(0, 1)
        assert prox.nbytes > before  # the matrix really grew post-store
        cache.invalidate(small_graph)
        # eviction subtracts the store-time snapshot, never going negative
        assert cache._memory_bytes == 0 and len(cache) == 0

    def test_freeze_copies_caller_owned_dense_arrays(self, small_graph):
        from repro.proximity import ProximityMatrix

        raw = DegreeProximity().compute_matrix(small_graph)  # caller-owned float64
        np.fill_diagonal(raw, 0.0)
        wrapped = ProximityMatrix(raw, name="degree")
        cache = ProximityCache()
        cache.put(DegreeProximity(), small_graph, wrapped, sparse=False)
        raw[0, 0] = 123.0  # the caller's array must stay writable
        assert cache.get(DegreeProximity(), small_graph, sparse=False).matrix[0, 0] == 0.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ProximityError):
            ProximityCache(max_memory_items=0)
        with pytest.raises(ProximityError):
            ProximityCache(max_memory_bytes=0)


class TestDiskTier:
    def test_round_trip_preserves_values_and_backend(self, small_graph, tmp_path):
        warm = ProximityCache(directory=tmp_path)
        measure = DeepWalkProximity(window_size=3)
        computed = warm.get_or_compute(measure, small_graph)

        cold = ProximityCache(directory=tmp_path)  # fresh process, same directory
        loaded = cold.get_or_compute(measure, small_graph)
        assert cold.hits == 1 and cold.misses == 0
        assert loaded.is_sparse == computed.is_sparse
        assert loaded.name == computed.name
        np.testing.assert_allclose(loaded.matrix, computed.matrix)
        np.testing.assert_allclose(loaded.row_sums, computed.row_sums)

    def test_round_trip_dense_backend(self, small_graph, tmp_path):
        warm = ProximityCache(directory=tmp_path)
        measure = DegreeProximity()
        computed = warm.get_or_compute(measure, small_graph, sparse=False)
        cold = ProximityCache(directory=tmp_path)
        loaded = cold.get_or_compute(measure, small_graph, sparse=False)
        assert not loaded.is_sparse
        np.testing.assert_allclose(loaded.matrix, computed.matrix)

    def test_corrupt_disk_entry_degrades_to_recompute(self, small_graph, tmp_path):
        warm = ProximityCache(directory=tmp_path)
        warm.get_or_compute(DegreeProximity(), small_graph)
        (payload,) = tmp_path.glob("*.npz")
        payload.write_bytes(b"not an npz archive")
        cold = ProximityCache(directory=tmp_path)
        recovered = cold.get_or_compute(DegreeProximity(), small_graph)
        assert cold.misses == 1 and recovered.num_nodes == small_graph.num_nodes
        # the bad file was dropped and replaced by the recompute's store
        cold2 = ProximityCache(directory=tmp_path)
        assert cold2.get(DegreeProximity(), small_graph) is not None

    def test_invalidate_removes_disk_entries(self, small_graph, tmp_path):
        cache = ProximityCache(directory=tmp_path)
        cache.get_or_compute(DegreeProximity(), small_graph)
        assert list(tmp_path.glob("*.npz"))
        cache.invalidate(small_graph)
        assert not list(tmp_path.glob("*.npz"))
        cold = ProximityCache(directory=tmp_path)
        cold.get_or_compute(DegreeProximity(), small_graph)
        assert cold.misses == 1

    def test_clear_resets_statistics_and_disk(self, small_graph, tmp_path):
        cache = ProximityCache(directory=tmp_path)
        cache.get_or_compute(DegreeProximity(), small_graph)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
        assert not list(tmp_path.glob("*.npz"))

    def test_clear_spares_unrelated_npz_files(self, small_graph, tmp_path):
        foreign = tmp_path / "saved_embeddings.npz"
        np.savez(foreign, embeddings=np.zeros((3, 2)))
        cache = ProximityCache(directory=tmp_path)
        cache.get_or_compute(DegreeProximity(), small_graph)
        cache.clear()
        assert foreign.exists()

    def test_clear_reaps_old_orphaned_temp_files_but_spares_fresh_ones(
        self, small_graph, tmp_path
    ):
        import os
        import time

        # a writer killed between savez and os.replace leaves this behind
        orphan = tmp_path / f".{'0' * 32}-{'1' * 32}.12345-abcdef01.npz"
        np.savez(orphan, data=np.zeros(2))
        stale = time.time() - 7200
        os.utime(orphan, (stale, stale))
        # a fresh temp file may belong to a live concurrent writer
        in_flight = tmp_path / f".{'2' * 32}-{'3' * 32}.67890-abcdef02.npz"
        np.savez(in_flight, data=np.zeros(2))
        cache = ProximityCache(directory=tmp_path)
        cache.clear()
        assert not orphan.exists()
        assert in_flight.exists()

    def test_cached_matrices_are_frozen_against_mutation(self, small_graph):
        cache = ProximityCache()
        prox = cache.get_or_compute(DegreeProximity(), small_graph)
        with pytest.raises(ValueError):
            prox.sparse_matrix.data[0] = 1e9
        dense = cache.get_or_compute(DegreeProximity(), small_graph, sparse=False)
        with pytest.raises(ValueError):
            dense.matrix[0, 0] = 1e9


class TestComputeProximityFrontDoor:
    def test_by_name_with_kwargs(self, small_graph):
        cache = ProximityCache()
        prox = compute_proximity("deepwalk", small_graph, cache=cache, window_size=2)
        assert prox.name == "deepwalk"
        again = compute_proximity("deepwalk", small_graph, cache=cache, window_size=2)
        assert again is prox

    def test_with_measure_instance(self, small_graph):
        cache = ProximityCache()
        prox = compute_proximity(DegreeProximity(), small_graph, cache=cache)
        assert prox.name == "degree"
        with pytest.raises(ProximityError):
            compute_proximity(DegreeProximity(), small_graph, cache=cache, window_size=2)

    def test_runner_tristate_cache_semantics(self, small_graph):
        from repro import PrivacyConfig, TrainingConfig
        from repro.experiments.runner import embed_with_method
        from repro.proximity import default_proximity_cache

        cfg = TrainingConfig(
            embedding_dim=8, batch_size=16, learning_rate=0.1, negative_samples=2, epochs=2
        )
        priv = PrivacyConfig(
            epsilon=3.5, delta=1e-5, noise_multiplier=5.0, clipping_threshold=2.0
        )
        default = default_proximity_cache()
        default.clear()
        # "off" bypasses caching entirely
        embed_with_method("se_gemb_deg", small_graph, cfg, priv, seed=0, proximity_cache="off")
        assert len(default) == 0
        # an explicit-but-empty cache (falsy via __len__) is still honoured
        empty = ProximityCache()
        embed_with_method("se_gemb_deg", small_graph, cfg, priv, seed=0, proximity_cache=empty)
        assert len(empty) == 1 and len(default) == 0

    def test_default_cache_is_shared(self, small_graph):
        default = default_proximity_cache()
        baseline_hits = default.hits
        first = compute_proximity("degree", small_graph)
        second = compute_proximity("degree", small_graph)
        assert second is first
        assert default.hits > baseline_hits

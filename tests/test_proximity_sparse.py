"""Sparse-vs-dense equivalence of every registered proximity measure.

The CSR backend must be a drop-in replacement for the dense one: same
values, same derived quantities (``min_positive``, ``row_sums``, Eq.-10
optima), to 1e-10.  This is the same discipline PR 1 pinned for the
vectorized engine against the per-example loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro import Graph, ProximityError
from repro.proximity import (
    DeepWalkProximity,
    KatzProximity,
    ProximityMatrix,
    available_proximities,
    get_proximity,
    spectral_radius,
)

TOL = dict(rtol=1e-10, atol=1e-12)

#: registry name -> constructor kwargs exercising non-default parameters
MEASURE_PARAMS: dict[str, dict] = {
    "common_neighbors": {},
    "preferential_attachment": {},
    "jaccard": {},
    "adamic_adar": {},
    "resource_allocation": {},
    "katz": {"beta": 0.05},
    "ppr": {"damping": 0.85},
    "deepwalk": {"window_size": 4},
    "degree": {},
}


def _measure(name):
    return get_proximity(name, **MEASURE_PARAMS[name])


@pytest.fixture(scope="module", params=sorted(MEASURE_PARAMS), ids=str)
def measure_pair(request, small_graph):
    """(dense ProximityMatrix, sparse ProximityMatrix) of one measure."""
    measure = _measure(request.param)
    return (
        measure.compute(small_graph, sparse=False),
        measure.compute(small_graph, sparse=True),
    )


class TestSparseDenseEquivalence:
    def test_registry_covers_every_measure(self):
        assert sorted(MEASURE_PARAMS) == available_proximities()

    def test_backends(self, measure_pair):
        dense, sparse_prox = measure_pair
        assert not dense.is_sparse
        assert sparse_prox.is_sparse

    def test_matrix_values(self, measure_pair):
        dense, sparse_prox = measure_pair
        np.testing.assert_allclose(sparse_prox.matrix, dense.matrix, **TOL)

    def test_min_positive_and_max_value(self, measure_pair):
        dense, sparse_prox = measure_pair
        assert sparse_prox.min_positive == pytest.approx(dense.min_positive, rel=1e-10)
        assert sparse_prox.max_value == pytest.approx(dense.max_value, rel=1e-10)

    def test_row_sums(self, measure_pair):
        dense, sparse_prox = measure_pair
        np.testing.assert_allclose(sparse_prox.row_sums, dense.row_sums, **TOL)

    def test_pair_values_on_edges_and_random_pairs(self, measure_pair, small_graph, rng):
        dense, sparse_prox = measure_pair
        centers = np.concatenate(
            [small_graph.edges[:, 0], rng.integers(0, small_graph.num_nodes, 200)]
        )
        contexts = np.concatenate(
            [small_graph.edges[:, 1], rng.integers(0, small_graph.num_nodes, 200)]
        )
        np.testing.assert_allclose(
            sparse_prox.pair_values(centers, contexts),
            dense.pair_values(centers, contexts),
            **TOL,
        )

    def test_eq10_optima(self, measure_pair, small_graph, rng):
        dense, sparse_prox = measure_pair
        k = 5
        centers = rng.integers(0, small_graph.num_nodes, 300)
        contexts = rng.integers(0, small_graph.num_nodes, 300)
        np.testing.assert_allclose(
            sparse_prox.theoretical_optimal_inner_products(centers, contexts, k),
            dense.theoretical_optimal_inner_products(centers, contexts, k),
            **TOL,
        )
        # the vectorized form must match the scalar Eq. (10) entry-point
        for i, j in zip(centers[:20], contexts[:20], strict=True):
            assert sparse_prox.theoretical_optimal_inner_product(
                int(i), int(j), k
            ) == pytest.approx(
                dense.theoretical_optimal_inner_product(int(i), int(j), k), rel=1e-10
            )

    def test_negative_sampling_masses(self, measure_pair, small_graph):
        dense, sparse_prox = measure_pair
        centers = np.arange(small_graph.num_nodes)
        np.testing.assert_allclose(
            sparse_prox.negative_sampling_masses(centers),
            dense.negative_sampling_masses(centers),
            **TOL,
        )
        for node in range(0, small_graph.num_nodes, 13):
            assert sparse_prox.negative_sampling_mass(node) == pytest.approx(
                dense.negative_sampling_mass(node), rel=1e-10
            )

    def test_normalized_equivalence(self, measure_pair):
        dense, sparse_prox = measure_pair
        normed_sparse = sparse_prox.normalized()
        normed_dense = dense.normalized()
        assert normed_sparse.is_sparse == sparse_prox.is_sparse
        np.testing.assert_allclose(normed_sparse.matrix, normed_dense.matrix, **TOL)
        if dense.max_value > 0:
            assert normed_sparse.max_value == pytest.approx(1.0)


class TestSparseProximityMatrixApi:
    def _toy_csr(self):
        return sparse.csr_matrix(
            np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        )

    def test_basic_derived_quantities(self):
        prox = ProximityMatrix(self._toy_csr(), name="toy")
        assert prox.is_sparse
        assert prox.num_nodes == 3
        assert prox.nnz == 4
        assert prox.min_positive == pytest.approx(0.5)
        assert prox.max_value == pytest.approx(2.0)
        np.testing.assert_allclose(prox.row_sums, [2.5, 2.0, 0.5])
        assert prox.pair_value(0, 1) == pytest.approx(2.0)
        assert prox.pair_value(1, 2) == 0.0  # structural zero
        np.testing.assert_allclose(prox.pair_values([0, 0, 2], [1, 2, 1]), [2.0, 0.5, 0.0])

    def test_explicit_zeros_are_eliminated(self):
        matrix = sparse.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        matrix[0, 1] = 0.0  # leaves an explicit zero behind
        prox = ProximityMatrix(matrix)
        assert prox.nnz == 1
        assert prox.min_positive == pytest.approx(1.0)

    def test_rejects_invalid_sparse_matrices(self):
        with pytest.raises(ProximityError):
            ProximityMatrix(sparse.csr_matrix(np.ones((2, 3))))
        with pytest.raises(ProximityError):
            ProximityMatrix(sparse.csr_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]])))
        with pytest.raises(ProximityError):
            ProximityMatrix(sparse.csr_matrix(np.array([[0.0, np.nan], [np.nan, 0.0]])))

    def test_sparse_matrix_accessor_round_trips(self):
        dense_values = np.array([[0.0, 3.0], [3.0, 0.0]])
        dense_prox = ProximityMatrix(dense_values)
        assert not dense_prox.is_sparse
        np.testing.assert_allclose(dense_prox.sparse_matrix.toarray(), dense_values)
        sparse_prox = ProximityMatrix(sparse.csr_matrix(dense_values))
        np.testing.assert_allclose(sparse_prox.matrix, dense_values)

    def test_all_zero_sparse_matrix(self):
        prox = ProximityMatrix(sparse.csr_matrix((3, 3)))
        assert prox.min_positive == 0.0
        assert prox.max_value == 0.0
        assert prox.negative_sampling_mass(0) == 0.0
        assert prox.normalized().nnz == 0

    def test_repr_names_backend(self):
        assert "csr" in repr(ProximityMatrix(self._toy_csr()))
        assert "dense" in repr(ProximityMatrix(np.zeros((2, 2))))

    @pytest.mark.parametrize("backend", ["csr", "dense"])
    def test_lookups_reject_out_of_range_indices(self, backend):
        matrix = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
        prox = ProximityMatrix(sparse.csr_matrix(matrix) if backend == "csr" else matrix)
        # index 3 would alias to key (1, 0) via row*n+col; -1 would wrap in numpy
        for bad in (3, -1):
            with pytest.raises(ProximityError):
                prox.pair_value(0, bad)
            with pytest.raises(ProximityError):
                prox.pair_values(np.array([0]), np.array([bad]))
            with pytest.raises(ProximityError):
                prox.negative_sampling_mass(bad)
            with pytest.raises(ProximityError):
                prox.theoretical_optimal_inner_products(np.array([bad]), np.array([0]), 2)

    def test_freeze_copies_ndarray_subclass_views(self):
        # np.asarray on an ndarray subclass returns a memory-sharing view,
        # so freeze() must copy or the caller's handle mutates the cache
        class Subclass(np.ndarray):
            pass

        raw = np.array([[0.0, 1.0], [1.0, 0.0]]).view(Subclass)
        prox = ProximityMatrix(raw).freeze()
        raw[0, 1] = 99.0
        assert prox.pair_value(0, 1) == 1.0

    def test_frozen_matrix_rejects_inplace_writes(self):
        frozen_sparse = ProximityMatrix(self._toy_csr()).freeze()
        with pytest.raises(ValueError):
            frozen_sparse.sparse_matrix.data[0] = 99.0
        dense = ProximityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])).freeze()
        with pytest.raises(ValueError):
            dense.matrix[0, 1] = 99.0
        # derived copies stay writable
        assert frozen_sparse.normalized().sparse_matrix.data.flags.writeable
        assert dense.normalized().matrix.flags.writeable


class TestSparseComputePath:
    def test_diagonal_stripped_without_densifying(self, small_graph):
        prox = DeepWalkProximity(window_size=3).compute(small_graph, sparse=True)
        assert prox.is_sparse
        np.testing.assert_allclose(prox.sparse_matrix.diagonal(), 0.0)

    def test_default_backend_is_sparse_for_sparse_measures(self, small_graph):
        assert get_proximity("common_neighbors").compute(small_graph).is_sparse
        assert get_proximity("degree").compute(small_graph).is_sparse
        assert not get_proximity("preferential_attachment").compute(small_graph).is_sparse
        # truncated DeepWalk (bounded fill-in) defaults to CSR; exact powers
        # are structurally near-full, so the exact variant defaults dense
        assert DeepWalkProximity(
            window_size=2, truncation_threshold=1e-3
        ).compute(small_graph).is_sparse
        assert not DeepWalkProximity(window_size=2).compute(small_graph).is_sparse
        assert DeepWalkProximity(window_size=2).compute(small_graph, sparse=True).is_sparse
        # Katz/PPR resolvents are structurally full: CSR is opt-in, not default
        for name in ("katz", "ppr"):
            measure = get_proximity(name)
            assert measure.supports_sparse and not measure.resolve_backend(None)
            assert not measure.compute(small_graph).is_sparse
            assert measure.compute(small_graph, sparse=True).is_sparse

    def test_fingerprint_hashes_array_parameters(self, small_graph):
        from repro.proximity import ProximityMeasure

        class ArrayParamMeasure(ProximityMeasure):
            name = "array-param"

            def __init__(self, weights):
                self.weights = weights  # ndarray, or a container holding one

            def compute_matrix(self, graph):
                return np.zeros((graph.num_nodes, graph.num_nodes))

        a = np.zeros(2000)
        b = np.zeros(2000)
        b[1000] = 1.0  # repr() truncates both arrays to the same string
        assert ArrayParamMeasure(a).fingerprint() != ArrayParamMeasure(b).fingerprint()
        assert ArrayParamMeasure(a).fingerprint() == ArrayParamMeasure(a.copy()).fingerprint()
        # arrays nested inside containers are hashed too, not repr-truncated
        assert ArrayParamMeasure([a]).fingerprint() != ArrayParamMeasure([b]).fingerprint()
        assert (
            ArrayParamMeasure({"w": a}).fingerprint()
            != ArrayParamMeasure({"w": b}).fingerprint()
        )

    def test_fingerprint_hashes_callable_parameters_without_addresses(self):
        from repro.proximity import ProximityMeasure

        class CallableParamMeasure(ProximityMeasure):
            name = "callable-param"

            def __init__(self, fn):
                self.fn = fn

            def compute_matrix(self, graph):
                return np.zeros((graph.num_nodes, graph.num_nodes))

        half = lambda d: d**0.5
        threequarter = lambda d: d**0.75
        fp = CallableParamMeasure(half).fingerprint()
        assert "0x" not in fp  # no memory addresses: stable across processes
        assert fp == CallableParamMeasure(half).fingerprint()
        assert fp != CallableParamMeasure(threequarter).fingerprint()

        # closures and partials carry behaviour outside co_code: both must
        # reach the fingerprint or differently-configured measures collide
        import functools

        def make(offset):
            return lambda d: d + offset

        assert (
            CallableParamMeasure(make(0.0)).fingerprint()
            != CallableParamMeasure(make(100.0)).fingerprint()
        )
        base = lambda d, offset: d + offset
        assert (
            CallableParamMeasure(functools.partial(base, offset=0.0)).fingerprint()
            != CallableParamMeasure(functools.partial(base, offset=100.0)).fingerprint()
        )

    def test_fingerprint_distinguishes_same_named_classes(self):
        from repro.proximity import ProximityMeasure

        def make(registry_name):
            class Shadow(ProximityMeasure):
                name = registry_name

                def compute_matrix(self, graph):
                    return np.zeros((graph.num_nodes, graph.num_nodes))

            return Shadow()

        # identical class name and params, different registry names / identities
        assert make("variant-a").fingerprint() != make("variant-b").fingerprint()

    def test_dense_compute_path_freezes_without_copy(self, small_graph):
        prox = get_proximity("preferential_attachment").compute(small_graph)
        buffer = prox.matrix
        prox.freeze()
        assert prox.matrix is buffer  # no defensive n×n copy for owned arrays
        assert not buffer.flags.writeable

    def test_deepwalk_truncation_bounds_fill_in(self, medium_graph):
        exact = DeepWalkProximity(window_size=5).compute(medium_graph, sparse=True)
        truncated = DeepWalkProximity(
            window_size=5, truncation_threshold=5e-2
        ).compute(medium_graph, sparse=True)
        assert truncated.nnz < exact.nnz
        # the retained entries approximate the exact walk probabilities:
        # truncation only ever removes probability mass below the threshold
        exact_values = exact.pair_values(*truncated.sparse_matrix.nonzero())
        truncated_values = truncated.pair_values(*truncated.sparse_matrix.nonzero())
        assert np.all(truncated_values <= exact_values + 1e-12)

    def test_deepwalk_rejects_negative_threshold(self):
        with pytest.raises(ProximityError):
            DeepWalkProximity(truncation_threshold=-0.1)

    def test_katz_sparse_requires_convergent_beta(self, small_graph):
        with pytest.raises(ProximityError):
            KatzProximity(beta=10.0).compute(small_graph, sparse=True)

    def test_spectral_radius_matches_eigvalsh(self, small_graph, path_graph):
        for graph in (small_graph, path_graph):
            adjacency = graph.adjacency_matrix()
            expected = float(np.max(np.abs(np.linalg.eigvalsh(adjacency.toarray()))))
            assert spectral_radius(adjacency) == pytest.approx(expected, rel=1e-6)

    def test_spectral_radius_of_empty_graph_is_zero(self):
        graph = Graph(4, [])
        assert spectral_radius(graph.adjacency_matrix()) == 0.0

    def test_spectral_radius_near_degenerate_spectrum(self):
        # Two disjoint 4-cliques share the leading eigenvalue exactly
        # (lambda1 == lambda2 == 3): plain power iteration can stall below
        # the radius here, which would let a divergent Katz beta through.
        cliques = Graph(
            8,
            [(u, v) for base in (0, 4) for u in range(base, base + 4)
             for v in range(u + 1, base + 4)],
        )
        assert spectral_radius(cliques.adjacency_matrix()) == pytest.approx(3.0, rel=1e-9)
        with pytest.raises(ProximityError):
            KatzProximity(beta=0.34).compute(cliques, sparse=True)  # 0.34 > 1/3


#: measures that declare no locality: a delta recomputes them in full
GLOBAL_MEASURES = {"katz", "ppr", "preferential_attachment"}


class TestRowKernels:
    """``compute_rows`` runs a local measure's sparse kernel on a row block."""

    @pytest.mark.parametrize("graph_name", ["small_graph", "medium_graph"])
    @pytest.mark.parametrize("name", sorted(MEASURE_PARAMS))
    def test_compute_rows_equals_rows_of_full_matrix(self, name, graph_name, request):
        graph = request.getfixturevalue(graph_name)
        measure = _measure(name)
        rows = np.arange(1, graph.num_nodes, 3)
        if measure.locality_radius() is None:
            assert name in GLOBAL_MEASURES
            with pytest.raises(ProximityError):
                measure.compute_rows(graph, rows)
            return
        block = measure.compute_rows(graph, rows)
        expected = measure.compute(graph, sparse=True).sparse_matrix[rows]
        assert block.shape == (rows.shape[0], graph.num_nodes)
        assert (block != expected).nnz == 0  # bit-identical, diagonal included

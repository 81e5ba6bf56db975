"""Tests for the skip-gram model, objective gradients, optimizer and perturbation."""

from __future__ import annotations

import numpy as np
import pytest
from objective_oracle import example_gradients, example_loss
from perturbation_oracle import densify, load_gradients, workspace_for

from repro import ConfigurationError, SkipGramModel, SubgraphBatch, TrainingError
from repro.embedding.objectives import StructurePreferenceObjective
from repro.embedding.optimizer import SGDOptimizer
from repro.embedding.perturbation import (
    NaivePerturbation,
    NonZeroPerturbation,
    get_perturbation,
)
from repro.engine import PerturbedUpdate, StepWorkspace
from repro.proximity import DeepWalkProximity, ProximityMatrix
from repro.utils.math import log_sigmoid, sigmoid


def _numerical_center_gradient(w_in, w_out, center, contexts, weight, eps=1e-6):
    """Finite-difference gradient of one example's loss w.r.t. the centre vector."""
    grad = np.zeros_like(w_in[center])
    for i in range(grad.size):
        w_plus = w_in.copy()
        w_plus[center, i] += eps
        w_minus = w_in.copy()
        w_minus[center, i] -= eps
        grad[i] = (
            example_loss(w_plus, w_out, center, contexts, weight)
            - example_loss(w_minus, w_out, center, contexts, weight)
        ) / (2 * eps)
    return grad


class TestSkipGramModel:
    def test_shapes_and_init_range(self):
        model = SkipGramModel(10, 4, init_scale=0.1, seed=0)
        assert model.w_in.shape == (10, 4)
        assert model.w_out.shape == (10, 4)
        assert np.all(np.abs(model.w_in) <= 0.1)

    def test_score_matches_inner_product(self):
        model = SkipGramModel(5, 3, seed=1)
        expected = sum(model.w_in[2, j] * model.w_out[4, j] for j in range(3))
        score = np.einsum("j,j->", model.w_in[2], model.w_out[4])
        assert score == pytest.approx(expected)

    def test_scores_vectorised(self):
        model = SkipGramModel(6, 3, seed=2)
        centers = np.array([0, 1, 2])
        contexts = np.array([3, 4, 5])
        expected = [
            float(model.w_in[c] @ model.w_out[x])
            for c, x in zip(centers, contexts, strict=True)
        ]
        scores = np.einsum("ij,ij->i", model.w_in[centers], model.w_out[contexts])
        np.testing.assert_allclose(scores, expected)

    def test_embeddings_returns_copy(self):
        model = SkipGramModel(4, 2, seed=0)
        emb = model.embeddings()
        emb[:] = 0.0
        assert not np.allclose(model.w_in, 0.0)

    def test_copy_is_independent(self):
        model = SkipGramModel(4, 2, seed=0)
        clone = model.copy()
        np.testing.assert_allclose(clone.w_in, model.w_in)
        clone.w_in[:] = 9.0
        assert not np.allclose(model.w_in, 9.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ConfigurationError):
            SkipGramModel(0, 4)
        with pytest.raises(ConfigurationError):
            SkipGramModel(4, 0)
        with pytest.raises(ConfigurationError):
            SkipGramModel(4, 2, init_scale=0.0)


_CONTEXTS = np.array([2, 4, 6])  # centre 1: positive 2, negatives 4 and 6


class TestPairGradients:
    """The batch pass on a one-example batch against Eq. (5), (7) and (8)."""

    def _setup(self, rng):
        w_in = rng.normal(0, 0.3, size=(8, 5))
        w_out = rng.normal(0, 0.3, size=(8, 5))
        return w_in, w_out

    def _gradients(self, w_in, w_out, weight):
        objective = StructurePreferenceObjective(ProximityMatrix(np.ones((8, 8))))
        batch = SubgraphBatch(
            centers=np.array([1]), contexts=_CONTEXTS[None, :],
            weights=np.array([weight]),
        )
        ws = StepWorkspace(batch_size=1, num_negatives=2, embedding_dim=5, num_nodes=8)
        return objective.batch_gradients(w_in, w_out, batch, workspace=ws)

    def test_loss_matches_equation_5(self, rng):
        w_in, w_out = self._setup(rng)
        weight = 0.7
        pos = float(w_out[2] @ w_in[1])
        negs = w_out[[4, 6]] @ w_in[1]
        expected = -weight * float(log_sigmoid(pos)) - weight * float(
            np.sum(log_sigmoid(-negs))
        )
        assert self._gradients(w_in, w_out, weight).losses[0] == pytest.approx(expected)
        assert example_loss(w_in, w_out, 1, _CONTEXTS, weight) == pytest.approx(expected)

    def test_center_gradient_matches_numerical(self, rng):
        w_in, w_out = self._setup(rng)
        weight = 1.3
        grads = self._gradients(w_in, w_out, weight)
        numeric = _numerical_center_gradient(w_in, w_out, 1, _CONTEXTS, weight)
        np.testing.assert_allclose(grads.center_gradients[0], numeric, atol=1e-5)

    def test_context_gradient_matches_equation_8(self, rng):
        w_in, w_out = self._setup(rng)
        weight = 0.9
        grads = self._gradients(w_in, w_out, weight)
        # Eq. (8): p_ij (σ(v_n·v_i) - 1[v_n positive]) v_i for each context row.
        for row, node in enumerate(grads.context_nodes[0]):
            score = float(w_out[node] @ w_in[1])
            indicator = 1.0 if row == 0 else 0.0
            expected = weight * (sigmoid(score) - indicator) * w_in[1]
            np.testing.assert_allclose(
                grads.context_errors[0, row] * grads.center_vectors[0], expected, atol=1e-10
            )

    def test_gradient_sparsity_structure(self, rng):
        w_in, w_out = self._setup(rng)
        grads = self._gradients(w_in, w_out, 1.0)
        assert grads.centers[0] == 1
        np.testing.assert_array_equal(grads.context_nodes[0], [2, 4, 6])
        assert grads.context_errors[0].shape == (3,)
        assert grads.center_vectors[0].shape == (5,)

    def test_zero_weight_gives_zero_gradient(self, rng):
        w_in, w_out = self._setup(rng)
        grads = self._gradients(w_in, w_out, 0.0)
        np.testing.assert_allclose(grads.center_gradients, 0.0)
        np.testing.assert_allclose(grads.context_errors, 0.0)


class TestStructurePreferenceObjective:
    def test_edge_weight_normalised_to_unit_peak(self, small_graph):
        proximity = DeepWalkProximity(window_size=3).compute(small_graph)
        objective = StructurePreferenceObjective(proximity)
        weights = objective.edge_weights(small_graph.edges[:, 0], small_graph.edges[:, 1])
        assert max(weights) <= 1.0 + 1e-9
        assert min(weights) > 0

    def test_unnormalised_weights_match_raw_proximity(self, small_graph):
        proximity = DeepWalkProximity(window_size=3).compute(small_graph)
        objective = StructurePreferenceObjective(proximity, normalize_weights=False)
        u, v = (int(x) for x in small_graph.edges[0])
        assert objective.edge_weights(np.array([u]), np.array([v]))[0] == pytest.approx(
            max(proximity.pair_value(u, v), objective.weight_floor)
        )

    def test_optimal_inner_product_scale_invariant(self, small_graph):
        """Theorem 3: rescaling P does not change the optimum of Eq. (10)."""
        proximity = DeepWalkProximity(window_size=3).compute(small_graph)
        scaled = ProximityMatrix(proximity.matrix * 7.5, name="scaled")
        u, v = (int(x) for x in small_graph.edges[0])
        assert proximity.theoretical_optimal_inner_product(u, v, 5) == pytest.approx(
            scaled.theoretical_optimal_inner_product(u, v, 5)
        )


class TestSGDOptimizer:
    def test_descend_moves_against_gradient(self):
        opt = SGDOptimizer(learning_rate=0.5)
        params = np.array([[1.0, 1.0], [3.0, 3.0]])
        opt.descend_unique_rows(params, np.array([0]), np.array([[2.0, -2.0]]))
        np.testing.assert_allclose(params, [[0.0, 2.0], [3.0, 3.0]])

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SGDOptimizer(0.0)
        opt = SGDOptimizer(0.1)
        with pytest.raises(ConfigurationError):
            opt.descend_unique_rows(np.zeros((2, 2)), np.array([0]), np.zeros((2, 2)))


def _perturb(strategy, grads, num_nodes=10):
    """Run the workspace perturbation on per-example gradients, densified."""
    ws = workspace_for(grads, num_nodes)
    return densify(strategy.perturb_batch(load_gradients(ws, grads), ws), num_nodes)


class TestPerturbationStrategies:
    def _example_gradients(self, rng, num_nodes=10, dim=4, count=6):
        return [
            example_gradients(
                rng.normal(0, 0.5, (num_nodes, dim)),
                rng.normal(0, 0.5, (num_nodes, dim)),
                i % num_nodes,
                [(i + 1) % num_nodes, (i + 2) % num_nodes, (i + 3) % num_nodes],
                1.0,
            )
            for i in range(count)
        ]

    def test_sensitivity_values(self):
        naive = NaivePerturbation(clipping_threshold=2.0, noise_multiplier=5.0, seed=0)
        nonzero = NonZeroPerturbation(clipping_threshold=2.0, noise_multiplier=5.0, seed=0)
        assert naive.sensitivity(batch_size=64) == pytest.approx(128.0)
        assert nonzero.sensitivity(batch_size=64) == pytest.approx(2.0)

    def test_nonzero_only_noises_touched_rows(self, rng):
        grads = self._example_gradients(rng, count=3)
        strategy = NonZeroPerturbation(2.0, 5.0, seed=1)
        result = _perturb(strategy, grads)
        touched_in = {g.center for g in grads}
        untouched_in = set(range(10)) - touched_in
        for row in untouched_in:
            np.testing.assert_allclose(result.w_in_gradient[row], 0.0)
        assert any(np.any(result.w_in_gradient[row] != 0) for row in touched_in)

    def test_naive_noises_every_row(self, rng):
        grads = self._example_gradients(rng, count=3)
        strategy = NaivePerturbation(2.0, 5.0, seed=1)
        result = _perturb(strategy, grads)
        assert np.all(np.any(result.w_in_gradient != 0, axis=1))

    def test_naive_noise_is_much_larger(self, rng):
        grads = self._example_gradients(rng, count=8)
        naive = _perturb(NaivePerturbation(2.0, 5.0, seed=2), grads)
        nonzero = _perturb(NonZeroPerturbation(2.0, 5.0, seed=2), grads)
        assert np.linalg.norm(naive.w_in_gradient) > 3 * np.linalg.norm(nonzero.w_in_gradient)

    def test_counts_track_batch_composition(self, rng):
        grads = self._example_gradients(rng, count=5)
        result = _perturb(NonZeroPerturbation(2.0, 5.0, seed=0), grads)
        assert result.w_in_counts.sum() == 5
        assert result.w_out_counts.sum() == 5 * 3  # positive + 2 negatives each
        assert result.batch_size == 5

    def test_normalisation_helpers(self, rng):
        """The update divides the noisy sums by B or by each row's count."""
        grads = self._example_gradients(rng, count=4)
        raw = _perturb(NonZeroPerturbation(2.0, 5.0, seed=0), grads)
        by_batch = raw.w_in_gradient / raw.batch_size
        by_row = raw.w_in_gradient / np.maximum(raw.w_in_counts, 1.0)[:, None]
        for normalization, expected in (("batch", by_batch), ("per_row", by_row)):
            ws = workspace_for(grads, num_nodes=10)
            update = PerturbedUpdate(
                NonZeroPerturbation(2.0, 5.0, seed=0), gradient_normalization=normalization
            )
            update.workspace = ws
            model = SkipGramModel(10, 4, seed=0)
            model.w_in[:] = 0.0
            update.apply(model, SGDOptimizer(1.0), None, load_gradients(ws, grads))
            np.testing.assert_allclose(-model.w_in, expected, rtol=1e-12, atol=1e-12)
        # rows touched exactly once are identical to the raw sum under per-row averaging
        once = np.flatnonzero(raw.w_in_counts == 1)
        np.testing.assert_allclose(by_row[once], raw.w_in_gradient[once])

    def test_empty_batch_rejected(self):
        for strategy in (NonZeroPerturbation(2.0, 5.0, seed=0), NaivePerturbation(2.0, 5.0)):
            with pytest.raises(TrainingError):
                strategy.sensitivity(batch_size=0)

    def test_registry_lookup(self):
        assert isinstance(get_perturbation("naive", 2.0, 5.0), NaivePerturbation)
        assert isinstance(get_perturbation("nonzero", 2.0, 5.0), NonZeroPerturbation)
        with pytest.raises(ConfigurationError):
            get_perturbation("unknown", 2.0, 5.0)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            NonZeroPerturbation(0.0, 5.0)
        with pytest.raises(ConfigurationError):
            NaivePerturbation(2.0, 0.0)

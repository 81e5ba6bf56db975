"""Tests for the vectorized training engine.

The headline guarantee: the engine's workspace step (``batch_gradients`` +
``perturb_batch`` + ``TrainingEngine``) is *numerically equivalent* to a
per-example loop (the oracles ``example_gradients`` + ``perturb``) — same
weights, same clipping, same noise draws given the same seed — to within
1e-10.
"""

from __future__ import annotations

import numpy as np
import pytest
from objective_oracle import batch_examples, example_gradients, split
from perturbation_oracle import densify, perturb

from repro import (
    PrivacyConfig,
    SEGEmbTrainer,
    SEPrivGEmbTrainer,
    SubgraphBatch,
    TrainingConfig,
    TrainingError,
)
from repro.embedding import SkipGramModel, SGDOptimizer, get_perturbation
from repro.embedding.objectives import StructurePreferenceObjective
from repro.engine import (
    DirectSparseUpdate,
    LossLoggingHook,
    StepWorkspace,
    TrainingEngine,
)
from repro.graph.sampling import (
    ProximityNegativeSampler,
    SubgraphSampler,
    UnigramNegativeSampler,
    generate_disjoint_subgraph_arrays,
)
from repro.privacy.accountant import RdpAccountant
from repro.proximity import DeepWalkProximity, DegreeProximity
from repro.utils.rng import ensure_rng

ATOL = 1e-10


def _objective_and_pool(graph, k=4, seed=0):
    proximity = DeepWalkProximity(window_size=3).compute(graph)
    objective = StructurePreferenceObjective(proximity)
    sampler = UnigramNegativeSampler(graph, seed=seed)
    pool = generate_disjoint_subgraph_arrays(graph, sampler, k)
    return objective, pool


def _whole_pool_gradients(graph, objective, pool, w_in, w_out):
    """Gradients of every pool row in one workspace step."""
    pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
    ws = StepWorkspace(
        batch_size=len(pool), num_negatives=pool.num_negatives,
        embedding_dim=w_in.shape[1], num_nodes=graph.num_nodes,
    )
    return objective.batch_gradients(w_in, w_out, pool, workspace=ws), ws


class TestSubgraphBatch:
    def test_layout_matches_all_context_nodes(self, small_graph):
        _, pool = _objective_and_pool(small_graph)
        assert len(pool) == small_graph.num_edges
        assert pool.num_negatives == 4
        np.testing.assert_array_equal(pool.centers, small_graph.edges[:, 0])
        np.testing.assert_array_equal(pool.positives, small_graph.edges[:, 1])
        np.testing.assert_array_equal(pool.contexts[:, 0], pool.positives)
        np.testing.assert_array_equal(pool.contexts[:, 1:], pool.negatives)

    def test_take_slices_all_fields(self, small_graph):
        _, pool = _objective_and_pool(small_graph)
        pool = pool.with_weights(np.arange(len(pool), dtype=float))
        indices = np.array([3, 0, 5])
        sub = pool.take(indices)
        np.testing.assert_array_equal(sub.centers, pool.centers[indices])
        np.testing.assert_array_equal(sub.contexts, pool.contexts[indices])
        np.testing.assert_array_equal(sub.weights, [3.0, 0.0, 5.0])

    def test_validation(self):
        with pytest.raises(TrainingError):  # empty batches are invalid
            SubgraphBatch(centers=np.zeros(0), contexts=np.zeros((0, 3)))
        with pytest.raises(TrainingError):
            SubgraphBatch(centers=np.zeros((2, 2)), contexts=np.zeros((2, 3)))
        with pytest.raises(TrainingError):
            SubgraphBatch(centers=np.zeros(2), contexts=np.zeros((3, 3)))
        with pytest.raises(TrainingError):  # needs positive + >= 1 negative
            SubgraphBatch(centers=np.zeros(2), contexts=np.zeros((2, 1)))
        with pytest.raises(TrainingError):  # weights shape mismatch
            SubgraphBatch(
                centers=np.zeros(2), contexts=np.zeros((2, 3)), weights=np.zeros(3)
            )


class TestBatchedSampler:
    def test_weights_ride_along(self, small_graph):
        objective, pool = _objective_and_pool(small_graph)
        pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
        sampler = SubgraphSampler(pool, batch_size=8, seed=1)
        ws = StepWorkspace(batch_size=8, num_negatives=pool.num_negatives,
                           embedding_dim=4, num_nodes=small_graph.num_nodes)
        batch = sampler.sample_batch_arrays(ws)
        assert batch.weights is not None
        np.testing.assert_allclose(
            batch.weights,
            objective.edge_weights(batch.centers, batch.positives),
            atol=ATOL,
        )


class TestBatchGradientEquivalence:
    def test_edge_weights_match_scalar_path(self, small_graph):
        objective, pool = _objective_and_pool(small_graph)
        vectorized = objective.edge_weights(pool.centers, pool.positives)
        scale = 1.0 / objective.proximity.max_value
        scalar = [
            max(objective.proximity.pair_value(int(c), int(p)) * scale, objective.weight_floor)
            for c, p in zip(pool.centers, pool.positives, strict=True)
        ]
        np.testing.assert_allclose(vectorized, scalar, atol=ATOL)

    def test_batch_gradients_match_pair_gradients(self, small_graph, rng):
        objective, pool = _objective_and_pool(small_graph)
        w_in = rng.normal(size=(small_graph.num_nodes, 8))
        w_out = rng.normal(size=(small_graph.num_nodes, 8))

        batch, _ = _whole_pool_gradients(small_graph, objective, pool, w_in, w_out)
        weights = objective.edge_weights(pool.centers, pool.positives)

        for row in range(len(pool)):
            reference = example_gradients(
                w_in, w_out, pool.centers[row], pool.contexts[row], weights[row]
            )
            assert batch.centers[row] == reference.center
            np.testing.assert_allclose(
                batch.center_gradients[row], reference.center_gradient, atol=ATOL
            )
            np.testing.assert_array_equal(batch.context_nodes[row], reference.context_nodes)
            np.testing.assert_allclose(
                batch.context_gradients[row], reference.context_gradients, atol=ATOL
            )
            assert batch.losses[row] == pytest.approx(reference.loss, abs=ATOL)

    def test_batch_loss_matches_gradient_losses(self, small_graph, rng):
        objective, pool = _objective_and_pool(small_graph)
        w_in = rng.normal(size=(small_graph.num_nodes, 8))
        w_out = rng.normal(size=(small_graph.num_nodes, 8))
        grads, _ = _whole_pool_gradients(small_graph, objective, pool, w_in, w_out)
        weighted = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
        oracle_mean = np.mean([example.loss for example in batch_examples(w_in, w_out, weighted)])
        assert grads.mean_loss == pytest.approx(oracle_mean, abs=ATOL)


class TestPerturbationEquivalence:
    @pytest.mark.parametrize("strategy", ["nonzero", "naive"])
    def test_perturb_batch_matches_perturb(self, small_graph, rng, strategy):
        """Same clipping, same noise draws: step and oracle agree to 1e-10."""
        objective, pool = _objective_and_pool(small_graph)
        w_in = rng.normal(size=(small_graph.num_nodes, 8))
        w_out = rng.normal(size=(small_graph.num_nodes, 8))
        batch_grads, ws = _whole_pool_gradients(small_graph, objective, pool, w_in, w_out)

        loop = get_perturbation(strategy, clipping_threshold=0.5, noise_multiplier=2.0, seed=77)
        vec = get_perturbation(strategy, clipping_threshold=0.5, noise_multiplier=2.0, seed=77)

        # copies: perturb_batch clips the workspace buffers in place
        reference = perturb(
            loop,
            split(batch_grads),
            num_nodes=small_graph.num_nodes,
            embedding_dim=8,
        )
        batched = densify(vec.perturb_batch(batch_grads, ws), small_graph.num_nodes)

        np.testing.assert_allclose(batched.w_in_gradient, reference.w_in_gradient, atol=ATOL)
        np.testing.assert_allclose(batched.w_out_gradient, reference.w_out_gradient, atol=ATOL)
        np.testing.assert_array_equal(batched.w_in_counts, reference.w_in_counts)
        np.testing.assert_array_equal(batched.w_out_counts, reference.w_out_counts)
        assert batched.batch_size == reference.batch_size
        assert batched.mean_loss == pytest.approx(reference.mean_loss, abs=ATOL)


def _legacy_setup(graph, config, rng):
    """Model, objective, weighted pool and sampler in the trainers' RNG order."""
    proximity = DegreeProximity().compute(graph)
    objective = StructurePreferenceObjective(proximity)
    model = SkipGramModel(graph.num_nodes, config.embedding_dim, seed=rng)
    negative_sampler = ProximityNegativeSampler(
        graph,
        proximity_row_sums=proximity.row_sums,
        min_positive_proximity=max(proximity.min_positive, 1e-12),
        seed=rng,
    )
    pool = generate_disjoint_subgraph_arrays(graph, negative_sampler, config.negative_samples)
    pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
    return model, pool, SubgraphSampler(pool, config.batch_size, seed=rng)


def _legacy_nonprivate_train(graph, config, seed, epochs):
    """Replica of the seed SE-GEmb trainer: per-example loop, same RNG order."""
    rng = ensure_rng(seed)
    model, pool, sampler = _legacy_setup(graph, config, rng)
    rate = config.learning_rate
    for _ in range(epochs):
        examples = batch_examples(model.w_in, model.w_out, pool.take(sampler.sample_indices()))
        centers = np.array([example.center for example in examples], dtype=np.int64)
        np.subtract.at(
            model.w_in, centers, rate * np.vstack([e.center_gradient for e in examples])
        )
        np.subtract.at(
            model.w_out,
            np.concatenate([example.context_nodes for example in examples]),
            rate * np.vstack([example.context_gradients for example in examples]),
        )
    return model


def _legacy_private_train(graph, training, privacy, seed, epochs):
    """Replica of the SE-PrivGEmb trainer (Algorithm 2), same RNG streams."""
    rng = ensure_rng(seed)
    model, pool, sampler = _legacy_setup(graph, training, rng)
    # the noise draws from its own child stream, spawned without consuming
    # any draw of the shared generator
    perturbation = get_perturbation(
        "nonzero",
        clipping_threshold=privacy.clipping_threshold,
        noise_multiplier=privacy.noise_multiplier,
        seed=rng.spawn(1)[0],
    )
    accountant = RdpAccountant(
        noise_multiplier=privacy.noise_multiplier, sampling_rate=sampler.sampling_rate
    )

    averaged_w_in = averaged_w_out = None
    steps = 0
    for _ in range(epochs):
        if accountant.would_exceed(privacy.epsilon, privacy.delta):
            break
        perturbed = perturb(
            perturbation,
            batch_examples(model.w_in, model.w_out, pool.take(sampler.sample_indices())),
            num_nodes=model.num_nodes,
            embedding_dim=model.embedding_dim,
        )
        w_in_grad, w_out_grad = perturbed.averaged_by_row_counts()
        model.w_in -= training.learning_rate * w_in_grad
        model.w_out -= training.learning_rate * w_out_grad
        accountant.step()
        steps += 1
        if averaged_w_in is None:
            averaged_w_in = model.w_in.copy()
            averaged_w_out = model.w_out.copy()
        else:
            averaged_w_in += model.w_in
            averaged_w_out += model.w_out
    assert steps > 0
    return averaged_w_in / steps, averaged_w_out / steps


class TestEngineTrainerEquivalence:
    def test_nonprivate_trainer_matches_legacy_loop(self, small_graph, fast_training_config):
        legacy = _legacy_nonprivate_train(small_graph, fast_training_config, seed=3, epochs=5)
        trainer = SEGEmbTrainer(
            DegreeProximity(), config=fast_training_config, seed=3
        ).fit(small_graph, epochs=5)
        np.testing.assert_allclose(trainer.embeddings_, legacy.w_in, atol=ATOL)
        np.testing.assert_allclose(trainer.context_embeddings_, legacy.w_out, atol=ATOL)

    def test_private_trainer_matches_legacy_loop(
        self, small_graph, fast_training_config, fast_privacy_config
    ):
        legacy_w_in, legacy_w_out = _legacy_private_train(
            small_graph, fast_training_config, fast_privacy_config, seed=9, epochs=5
        )
        trainer = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            seed=9,
        ).fit(small_graph, epochs=5)
        np.testing.assert_allclose(trainer.embeddings_, legacy_w_in, atol=ATOL)
        np.testing.assert_allclose(trainer.context_embeddings_, legacy_w_out, atol=ATOL)


class TestTrainingEngine:
    def _engine(self, graph, config, hooks=()):
        objective, pool = _objective_and_pool(graph, k=config.negative_samples)
        pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
        rng = ensure_rng(0)
        model = SkipGramModel(graph.num_nodes, config.embedding_dim, seed=rng)
        return TrainingEngine(
            model=model,
            optimizer=SGDOptimizer(config.learning_rate),
            objective=objective,
            sampler=SubgraphSampler(pool, config.batch_size, seed=rng),
            update_rule=DirectSparseUpdate(),
            hooks=hooks,
        )

    def test_run_records_losses_and_copies_weights(self, small_graph, fast_training_config):
        engine = self._engine(small_graph, fast_training_config, hooks=(LossLoggingHook(),))
        result = engine.run(4)
        assert result.epochs_run == 4
        assert len(result.losses) == 4
        assert np.all(np.isfinite(result.embeddings))
        # Published matrices are copies, not views of the live model.
        result.embeddings[:] = 0.0
        assert not np.allclose(engine.model.w_in, 0.0)

    def test_rejects_nonpositive_epochs(self, small_graph, fast_training_config):
        engine = self._engine(small_graph, fast_training_config)
        with pytest.raises(TrainingError):
            engine.run(0)

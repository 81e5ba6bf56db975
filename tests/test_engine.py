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
    PerturbedUpdate,
    StepWorkspace,
    TrainingEngine,
)
from repro.graph import load_dataset
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
    """Gradients of every pool row in one workspace step, in ``w_in``'s dtype."""
    weights = objective.edge_weights(pool.centers, pool.positives).astype(w_in.dtype)
    pool = pool.with_weights(weights)
    ws = StepWorkspace(
        batch_size=len(pool), num_negatives=pool.num_negatives,
        embedding_dim=w_in.shape[1], num_nodes=graph.num_nodes, dtype=w_in.dtype,
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
                np.outer(batch.context_errors[row], batch.center_vectors[row]),
                reference.context_gradients,
                atol=ATOL,
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
        graph = small_graph
        objective, pool = _objective_and_pool(graph)
        w_in = rng.normal(size=(graph.num_nodes, 8))
        w_out = rng.normal(size=(graph.num_nodes, 8))
        batch_grads, ws = _whole_pool_gradients(graph, objective, pool, w_in, w_out)

        loop = get_perturbation(strategy, clipping_threshold=0.5, noise_multiplier=2.0, seed=77)
        vec = get_perturbation(strategy, clipping_threshold=0.5, noise_multiplier=2.0, seed=77)

        # copies: perturb_batch clips the workspace buffers in place
        reference = perturb(
            loop,
            split(batch_grads),
            num_nodes=graph.num_nodes,
            embedding_dim=8,
        )
        batched = densify(vec.perturb_batch(batch_grads, ws), graph.num_nodes)

        assert batched.w_out_gradient.dtype == np.dtype(np.float64)
        for name in ("w_in_gradient", "w_out_gradient"):
            np.testing.assert_allclose(
                getattr(batched, name), getattr(reference, name), rtol=1e-7, atol=ATOL
            )
        np.testing.assert_array_equal(batched.w_in_counts, reference.w_in_counts)
        np.testing.assert_array_equal(batched.w_out_counts, reference.w_out_counts)
        assert batched.batch_size == reference.batch_size
        assert batched.mean_loss == pytest.approx(reference.mean_loss, abs=ATOL)


class TestRank1Clipping:
    def test_clipped_blocks_respect_the_threshold(self, small_graph, rng):
        objective, pool = _objective_and_pool(small_graph)
        w_in = rng.normal(size=(small_graph.num_nodes, 8))
        w_out = rng.normal(size=(small_graph.num_nodes, 8))
        grads, ws = _whole_pool_gradients(small_graph, objective, pool, w_in, w_out)
        raw_errors = grads.context_errors.copy()
        raw_centers = grads.center_gradients.copy()
        raw_norms = np.linalg.norm(
            (raw_errors[:, :, None] * grads.center_vectors[:, None, :]).reshape(len(grads), -1),
            axis=1,
        )
        threshold = float(np.median(raw_norms))
        strategy = get_perturbation("nonzero", threshold, 1.0, seed=0)
        strategy._clip_batch(grads, ws)

        blocks = grads.context_errors[:, :, None] * grads.center_vectors[:, None, :]
        norms = np.linalg.norm(blocks.reshape(len(grads), -1), axis=1)
        assert np.all(norms <= threshold * (1 + 1e-12))
        clipped = raw_norms > threshold
        assert clipped.any() and not clipped.all()
        np.testing.assert_allclose(norms[clipped], threshold, rtol=1e-12)
        # an example under the threshold is divided by exactly 1.0
        assert grads.context_errors[~clipped].tobytes() == raw_errors[~clipped].tobytes()
        center_norms = np.linalg.norm(grads.center_gradients, axis=1)
        assert np.all(center_norms <= threshold * (1 + 1e-12))
        kept = np.linalg.norm(raw_centers, axis=1) <= threshold
        assert grads.center_gradients[kept].tobytes() == raw_centers[kept].tobytes()


def _block_apply(self, model, optimizer, batch, gradients):
    """The SE-GEmb step with the ``W_out`` gradient block materialised.

    Builds ``errors ⊗ centre`` per example, seeds each row's sum with its
    first slot and adds the duplicates with ``np.add.at``.
    """
    block = gradients.context_errors[:, :, None] * gradients.center_vectors[:, None, :]
    for parameters, rows, values in (
        (model.w_in, gradients.centers, gradients.center_gradients),
        (model.w_out, gradients.context_nodes.reshape(-1),
         block.reshape(-1, model.embedding_dim)),
    ):
        unique_rows, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        sums = values[first].copy()
        duplicates = np.setdiff1d(np.arange(rows.size), first)
        np.add.at(sums, inverse[duplicates], values[duplicates])
        optimizer.descend_unique_rows(parameters, unique_rows, sums)


class TestRank1DirectUpdate:
    """SE-GEmb fits from the rank-1 factors equal the block path byte for byte."""

    CONFIG = TrainingConfig(
        embedding_dim=6, batch_size=24, learning_rate=0.1, negative_samples=4,
        epochs=30, seed=0,
    )

    @staticmethod
    def _graph(nodes):
        # 20 nodes: 24 examples x 5 context slots land on at most 20 rows,
        # so every row collects several slots per step
        return load_dataset("smallworld", num_nodes=nodes, seed=3)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("nodes", [20, 80])
    def test_serial_fit_is_byte_identical(self, monkeypatch, nodes, dtype):
        graph = self._graph(nodes)

        def fit():
            return SEGEmbTrainer(
                proximity=DegreeProximity(), config=self.CONFIG, seed=0,
                compute_dtype=dtype,
            ).fit(graph)

        factored = fit()
        monkeypatch.setattr(DirectSparseUpdate, "apply", _block_apply)
        block = fit()
        assert factored.embeddings_.dtype == np.dtype(dtype)
        assert factored.embeddings_.tobytes() == block.embeddings_.tobytes()
        assert factored.result_.losses == block.result_.losses


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


def _seeded_engine(graph, config, update_rule, learning_rate):
    """An engine whose model and batches depend only on the seed, not the rule."""
    objective, pool = _objective_and_pool(graph, k=config.negative_samples)
    pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
    rng = ensure_rng(0)
    model = SkipGramModel(graph.num_nodes, config.embedding_dim, seed=rng)
    return TrainingEngine(
        model=model,
        optimizer=SGDOptimizer(learning_rate),
        objective=objective,
        sampler=SubgraphSampler(pool, config.batch_size, seed=rng),
        update_rule=update_rule,
    )


class TestNoiselessLimit:
    """With clipping and noise off, SE-PrivGEmb's step is SE-GEmb's step.

    ``C = 1e10`` clips no example, and ``σ·C = 1e-290`` adds nothing a
    gradient row can hold; ``"batch"`` divides the sum by ``B``, so a rate
    of ``η·B`` descends by ``η`` times the summed gradient, as
    :class:`DirectSparseUpdate` does.  Both rules sum through the same
    segment reduce.
    """

    def test_perturbed_batch_rule_matches_direct_update(self, small_graph, fast_training_config):
        eta, steps = 0.1, 20
        direct = _seeded_engine(small_graph, fast_training_config, DirectSparseUpdate(), eta)
        batch_size = direct.sampler.batch_size
        noiseless = get_perturbation("nonzero", 1e10, 1e-300, seed=0)
        private = _seeded_engine(
            small_graph, fast_training_config, PerturbedUpdate(noiseless, "batch"),
            eta * batch_size,
        )
        init = direct.model.w_in.copy()
        exact, perturbed = direct.run(steps), private.run(steps)
        # the runs move away from the init, so matching is not vacuous
        assert not np.allclose(exact.embeddings, init, atol=1e-3)
        np.testing.assert_allclose(perturbed.losses, exact.losses, rtol=1e-10)
        np.testing.assert_allclose(perturbed.embeddings, exact.embeddings, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            perturbed.context_embeddings, exact.context_embeddings, rtol=1e-9, atol=1e-12
        )


class TestForeignBatchRows:
    """A batch id outside ``[0, |V|)`` fails the step before either matrix moves."""

    @staticmethod
    def _apply_foreign(graph, config, private, centre=None, context=None):
        rule = (
            PerturbedUpdate(get_perturbation("nonzero", 2.0, 5.0, seed=0))
            if private else DirectSparseUpdate()
        )
        engine = _seeded_engine(graph, config, rule, 0.1)
        model = engine.model
        engine.workspace = rule.workspace = StepWorkspace.for_training(model, engine.sampler)
        pool = engine.sampler.pool
        taken = pool.take(np.arange(engine.sampler.batch_size))
        centers, contexts = taken.centers.copy(), taken.contexts.copy()
        if centre is not None:
            centers[3] = centre
        if context is not None:
            contexts[3, 2] = context
        batch = SubgraphBatch(centers=centers, contexts=contexts, weights=taken.weights)
        w_in, w_out = model.w_in.copy(), model.w_out.copy()
        # the gradients read the rows with mode="clip"; the reduce is the guard
        gradients = engine.objective.batch_gradients(
            model.w_in, model.w_out, batch, workspace=engine.workspace
        )
        with pytest.raises(TrainingError) as raised:
            rule.apply(model, engine.optimizer, batch, gradients)
        assert model.w_in.tobytes() == w_in.tobytes()
        assert model.w_out.tobytes() == w_out.tobytes()
        return str(raised.value)

    @pytest.mark.parametrize("private", [False, True], ids=["direct", "perturbed"])
    def test_negative_centre_raises_and_leaves_the_model_unchanged(
        self, small_graph, fast_training_config, private
    ):
        message = self._apply_foreign(small_graph, fast_training_config, private, centre=-1)
        assert "non-negative" in message

    @pytest.mark.parametrize("private", [False, True], ids=["direct", "perturbed"])
    def test_context_of_num_nodes_raises_and_leaves_the_model_unchanged(
        self, small_graph, fast_training_config, private
    ):
        nodes = small_graph.num_nodes
        message = self._apply_foreign(
            small_graph, fast_training_config, private, context=nodes
        )
        assert f"below |V| = {nodes}" in message


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

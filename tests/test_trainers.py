"""Tests for the SE-GEmb (non-private) and SE-PrivGEmb (private) trainers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Graph,
    PrivacyConfig,
    SEGEmbTrainer,
    SEPrivGEmbTrainer,
    TrainingConfig,
    TrainingError,
)
from repro.graph import generators
from repro.privacy import RdpAccountant
from repro.proximity import DeepWalkProximity, DegreeProximity


class TestSEGEmbTrainer:
    def test_output_shapes(self, small_graph, fast_training_config):
        trainer = SEGEmbTrainer(DegreeProximity(), config=fast_training_config, seed=0)
        result = trainer.fit(small_graph).result_
        assert trainer.embeddings_.shape == (small_graph.num_nodes, 8)
        assert trainer.context_embeddings_.shape == (small_graph.num_nodes, 8)
        assert result.epochs_run == fast_training_config.epochs
        assert len(result.losses) == fast_training_config.epochs
        assert np.all(np.isfinite(trainer.embeddings_))

    def test_loss_decreases_with_training(self, small_graph):
        config = TrainingConfig(
            embedding_dim=16, batch_size=64, learning_rate=0.1, negative_samples=5, epochs=120
        )
        trainer = SEGEmbTrainer(DeepWalkProximity(window_size=3), config=config, seed=0)
        result = trainer.fit(small_graph).result_
        early = float(np.mean(result.losses[:10]))
        late = float(np.mean(result.losses[-10:]))
        assert late < early

    def test_deterministic_given_seed(self, small_graph, fast_training_config):
        a = SEGEmbTrainer(DegreeProximity(), config=fast_training_config, seed=3).fit(small_graph)
        b = SEGEmbTrainer(DegreeProximity(), config=fast_training_config, seed=3).fit(small_graph)
        np.testing.assert_allclose(a.embeddings_, b.embeddings_)

    def test_accepts_precomputed_proximity(self, small_graph, fast_training_config):
        proximity = DeepWalkProximity(window_size=3).compute(small_graph)
        trainer = SEGEmbTrainer(proximity, config=fast_training_config, seed=0)
        result = trainer.fit(small_graph, epochs=2).result_
        assert result.epochs_run == 2

    def test_unigram_negative_sampling_option(self, small_graph, fast_training_config):
        trainer = SEGEmbTrainer(
            DegreeProximity(),
            config=fast_training_config,
            negative_sampling="unigram",
            seed=0,
        )
        trainer.fit(small_graph, epochs=3)
        assert trainer.embeddings_.shape[0] == small_graph.num_nodes

    def test_invalid_inputs(self, small_graph, fast_training_config):
        empty = Graph(5, [])
        with pytest.raises(TrainingError):
            SEGEmbTrainer(DegreeProximity(), config=fast_training_config).fit(empty)
        with pytest.raises(TrainingError):
            SEGEmbTrainer(DegreeProximity(), config=fast_training_config, negative_sampling="bad")
        trainer = SEGEmbTrainer(DegreeProximity(), config=fast_training_config, seed=0)
        with pytest.raises(TrainingError):
            trainer.fit(small_graph, epochs=0)

    def test_final_loss_property(self, small_graph, fast_training_config):
        trainer = SEGEmbTrainer(DegreeProximity(), config=fast_training_config, seed=0)
        result = trainer.fit(small_graph, epochs=2).result_
        assert result.final_loss == result.losses[-1]


class TestSEPrivGEmbTrainer:
    def test_output_shapes_and_privacy_report(self, small_graph, fast_training_config, fast_privacy_config):
        trainer = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            seed=0,
        )
        result = trainer.fit(small_graph).result_
        assert trainer.embeddings_.shape == (small_graph.num_nodes, 8)
        assert result.privacy_spent.epsilon > 0
        assert result.privacy_spent.epsilon <= fast_privacy_config.epsilon + 1e-9
        assert result.epochs_run == len(result.losses)
        assert np.all(np.isfinite(trainer.embeddings_))

    def test_budget_limits_epochs(self, small_graph, fast_training_config):
        tight = PrivacyConfig(epsilon=0.5, delta=1e-5, noise_multiplier=5.0, clipping_threshold=2.0)
        trainer = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config.with_updates(epochs=500),
            privacy_config=tight,
            seed=0,
        )
        result = trainer.fit(small_graph).result_
        allowed = trainer.max_private_epochs()
        assert result.epochs_run <= max(allowed, 0) + 1
        assert result.stopped_early
        assert result.epochs_run < 500

    def test_larger_budget_allows_more_epochs(self, small_graph, fast_training_config):
        def epochs_for(epsilon):
            trainer = SEPrivGEmbTrainer(
                DegreeProximity(),
                training_config=fast_training_config.with_updates(epochs=10_000),
                privacy_config=PrivacyConfig(epsilon=epsilon),
                seed=0,
            )
            return trainer.fit(small_graph, epochs=1).max_private_epochs()

        assert epochs_for(0.5) < epochs_for(3.5)

    def test_privacy_spent_within_target(self, small_graph, fast_training_config):
        config = PrivacyConfig(epsilon=1.0)
        trainer = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config.with_updates(epochs=1000),
            privacy_config=config,
            seed=0,
        )
        result = trainer.fit(small_graph).result_
        assert result.privacy_spent.epsilon <= config.epsilon + 1e-9
        assert result.privacy_spent.delta == config.delta

    def test_deterministic_given_seed(self, small_graph, fast_training_config, fast_privacy_config):
        kwargs = dict(
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            seed=9,
        )
        a = SEPrivGEmbTrainer(DegreeProximity(), **kwargs).fit(small_graph)
        b = SEPrivGEmbTrainer(DegreeProximity(), **kwargs).fit(small_graph)
        np.testing.assert_allclose(a.embeddings_, b.embeddings_)

    def test_naive_and_nonzero_strategies_differ(self, small_graph, fast_training_config, fast_privacy_config):
        nonzero = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            perturbation="nonzero",
            seed=4,
        ).fit(small_graph)
        naive = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            perturbation="naive",
            seed=4,
        ).fit(small_graph)
        assert not np.allclose(nonzero.embeddings_, naive.embeddings_)
        # The naive strategy injects dense noise with sensitivity B·C, so its
        # embeddings drift much further from the origin.
        assert np.linalg.norm(naive.embeddings_) > np.linalg.norm(nonzero.embeddings_)

    def test_iterate_averaging_toggle(self, small_graph, fast_training_config, fast_privacy_config):
        averaged = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            iterate_averaging=True,
            seed=5,
        ).fit(small_graph)
        last_iterate = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            iterate_averaging=False,
            seed=5,
        ).fit(small_graph)
        assert not np.allclose(averaged.embeddings_, last_iterate.embeddings_)
        assert (
            np.linalg.norm(averaged.embeddings_)
            <= np.linalg.norm(last_iterate.embeddings_) + 1e-9
        )

    def test_batch_normalization_mode(self, small_graph, fast_training_config, fast_privacy_config):
        trainer = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            gradient_normalization="batch",
            seed=0,
        )
        result = trainer.fit(small_graph, epochs=3).result_
        assert result.epochs_run <= 3

    def test_sampling_rate_matches_batch_over_edges(self, small_graph, fast_training_config, fast_privacy_config):
        trainer = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            seed=0,
        ).fit(small_graph, epochs=1)
        expected = min(fast_training_config.batch_size, small_graph.num_edges) / small_graph.num_edges
        assert trainer.sampling_rate == pytest.approx(expected)

    def test_invalid_inputs(self, small_graph, fast_training_config, fast_privacy_config):
        with pytest.raises(TrainingError):
            SEPrivGEmbTrainer(
                DegreeProximity(),
                training_config=fast_training_config,
                privacy_config=fast_privacy_config,
            ).fit(Graph(4, []))
        with pytest.raises(TrainingError):
            SEPrivGEmbTrainer(
                DegreeProximity(),
                training_config=fast_training_config,
                privacy_config=fast_privacy_config,
                gradient_normalization="bogus",
            )

    def test_deepwalk_proximity_variant_runs(self, small_graph, fast_training_config, fast_privacy_config):
        trainer = SEPrivGEmbTrainer(
            DeepWalkProximity(window_size=3),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
            seed=0,
        )
        trainer.fit(small_graph, epochs=3)
        assert trainer.embeddings_.shape == (small_graph.num_nodes, 8)


class TestCounterparts:
    def test_same_rng_gives_same_model_pool_and_batches(
        self, small_graph, fast_training_config, fast_privacy_config
    ):
        # SE-GEmb with the Theorem-3 sampler is SE-PrivGEmb minus Algorithm
        # 2's clip/noise/account step: the same stream must build the same
        # model, subgraph pool and batches, the noise coming from a spawned
        # child that reads nothing from the shared stream
        public = SEGEmbTrainer(
            DegreeProximity(), config=fast_training_config, negative_sampling="proximity"
        )
        private = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=fast_training_config,
            privacy_config=fast_privacy_config,
        )
        streams = []
        for trainer in (public, private):
            rng = np.random.default_rng(21)
            trainer._setup(small_graph, rng)
            streams.append(rng)

        np.testing.assert_array_equal(public.model.w_in, private.model.w_in)
        np.testing.assert_array_equal(public.model.w_out, private.model.w_out)
        for field in ("centers", "contexts", "weights"):
            np.testing.assert_array_equal(
                getattr(public._subgraph_pool, field),
                getattr(private._subgraph_pool, field),
            )
        np.testing.assert_array_equal(
            public._sampler.sample_indices(), private._sampler.sample_indices()
        )
        assert streams[0].bit_generator.state == streams[1].bit_generator.state


_SERIAL_TRAIN = TrainingConfig(
    embedding_dim=8, epochs=40, batch_size=16, learning_rate=0.05, negative_samples=2
)
_SERIAL_PRIVACY = PrivacyConfig(
    epsilon=2.0, delta=1e-5, noise_multiplier=2.0, clipping_threshold=1.0
)


@pytest.fixture(scope="module")
def scale_free_graph() -> Graph:
    return generators.barabasi_albert_graph(150, 3, seed=1)


def _serial_trainer(private: bool, privacy: PrivacyConfig = _SERIAL_PRIVACY):
    if private:
        return SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=_SERIAL_TRAIN,
            privacy_config=privacy,
            seed=5,
        )
    return SEGEmbTrainer(DegreeProximity(), config=_SERIAL_TRAIN, seed=5)


class TestSerialTraining:
    """Algorithm 2 is one serial loop: no worker pool, no knob selecting one."""

    @pytest.mark.parametrize("knob", ["workers", "hogwild_resilience"])
    def test_nonprivate_trainer_has_no_worker_knobs(self, knob):
        with pytest.raises(TypeError, match=knob):
            SEGEmbTrainer(DegreeProximity(), config=_SERIAL_TRAIN, **{knob: 2})

    @pytest.mark.parametrize("knob", ["workers", "hogwild_resilience"])
    def test_private_trainer_has_no_worker_knobs(self, knob):
        with pytest.raises(TypeError, match=knob):
            SEPrivGEmbTrainer(
                DegreeProximity(),
                training_config=_SERIAL_TRAIN,
                privacy_config=_SERIAL_PRIVACY,
                **{knob: 2},
            )

    @pytest.mark.parametrize("private", [False, True], ids=["se_gemb", "se_privgemb"])
    def test_refit_reproduces_the_first_fit_bitwise(self, scale_free_graph, private):
        trainer = _serial_trainer(private)
        first = trainer.fit(scale_free_graph).embeddings_.copy()
        first_losses = list(trainer.result_.losses)
        trainer.fit(scale_free_graph)
        assert trainer.embeddings_.tobytes() == first.tobytes()
        assert trainer.result_.losses == first_losses

    @pytest.mark.parametrize("private", [False, True], ids=["se_gemb", "se_privgemb"])
    def test_a_fit_keeps_no_worker_state(self, scale_free_graph, private):
        trainer = _serial_trainer(private).fit(scale_free_graph)
        for attribute in ("workers", "last_worker_reports", "last_hogwild_run"):
            assert not hasattr(trainer, attribute)
        assert "workers" not in trainer._build_options()

    def test_every_step_is_charged_exactly_once(self, scale_free_graph):
        trainer = _serial_trainer(private=True).fit(scale_free_graph)
        result = trainer.result_
        assert result.epochs_run == _SERIAL_TRAIN.epochs == len(result.losses)
        assert result.privacy_spent.steps == result.epochs_run
        oracle = RdpAccountant(
            noise_multiplier=_SERIAL_PRIVACY.noise_multiplier,
            sampling_rate=trainer.accountant.sampling_rate,
        )
        oracle.step(result.epochs_run)
        assert result.privacy_spent == oracle.get_privacy_spent(_SERIAL_PRIVACY.delta)

    @pytest.mark.parametrize(
        ("epsilon", "sigma"), [(1.0, 2.0), (0.8, 1.0)], ids=["admits_15", "admits_none"]
    )
    def test_budget_truncates_at_exactly_the_admissible_step(
        self, scale_free_graph, epsilon, sigma
    ):
        tight = PrivacyConfig(
            epsilon=epsilon, delta=1e-5, noise_multiplier=sigma, clipping_threshold=1.0
        )
        trainer = _serial_trainer(private=True, privacy=tight).fit(scale_free_graph)
        budget = trainer.accountant.max_steps(tight.epsilon, tight.delta)
        assert budget < _SERIAL_TRAIN.epochs
        result = trainer.result_
        assert result.stopped_early
        assert result.epochs_run == budget == len(result.losses)
        assert result.privacy_spent.steps == budget
        assert result.privacy_spent.epsilon <= tight.epsilon

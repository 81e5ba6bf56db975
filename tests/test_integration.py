"""End-to-end integration tests across modules.

These exercise the full pipeline the README quickstart describes: load a
dataset, compute a proximity, train private and non-private embeddings,
and evaluate both downstream tasks — plus the qualitative claims of the
paper that the reproduction is expected to preserve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PrivacyConfig,
    SEGEmbTrainer,
    SEPrivGEmbTrainer,
    TrainingConfig,
    link_prediction_auc,
    load_dataset,
    make_link_prediction_split,
    structural_equivalence_score,
)
from repro.baselines import get_baseline
from repro.proximity import DeepWalkProximity, DegreeProximity

pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def graph():
    """A chameleon stand-in big enough for the qualitative claims to show."""
    return load_dataset("chameleon", num_nodes=120, seed=0)


@pytest.fixture(scope="module")
def training_config():
    return TrainingConfig(
        embedding_dim=16, batch_size=96, learning_rate=0.1, negative_samples=5, epochs=250
    )


class TestEndToEndPipeline:
    def test_quickstart_pipeline(self, graph):
        """The README quickstart: private training + both evaluations."""
        config = TrainingConfig(
            embedding_dim=16, batch_size=64, learning_rate=0.1, negative_samples=3, epochs=15
        )
        trainer = SEPrivGEmbTrainer(
            DeepWalkProximity(window_size=3),
            training_config=config,
            privacy_config=PrivacyConfig(epsilon=2.0),
            seed=0,
        ).fit(graph)
        assert trainer.result_.privacy_spent.epsilon <= 2.0 + 1e-9

        strucequ = structural_equivalence_score(graph, trainer.embeddings_)
        assert -1.0 <= strucequ <= 1.0

        split = make_link_prediction_split(graph, seed=0)
        auc = link_prediction_auc(trainer.embeddings_, split)
        assert 0.0 <= auc <= 1.0

    def test_nonprivate_training_learns_structure(self, graph, training_config):
        """SE-GEmb must clearly beat random embeddings on structural equivalence."""
        trainer = SEGEmbTrainer(DeepWalkProximity(window_size=5), config=training_config, seed=0)
        embeddings = trainer.fit(graph).embeddings_
        learned = structural_equivalence_score(graph, embeddings)
        random_score = structural_equivalence_score(
            graph, np.random.default_rng(0).normal(size=embeddings.shape)
        )
        assert learned > random_score + 0.2
        assert learned > 0.3

    def test_nonzero_beats_naive_perturbation(self, graph, training_config):
        """The Table-VI ablation: non-zero perturbation preserves far more utility."""
        common = dict(
            training_config=training_config,
            privacy_config=PrivacyConfig(epsilon=3.5),
            seed=1,
        )
        nonzero = SEPrivGEmbTrainer(
            DeepWalkProximity(window_size=5), perturbation="nonzero", **common
        ).fit(graph)
        naive = SEPrivGEmbTrainer(
            DeepWalkProximity(window_size=5), perturbation="naive", **common
        ).fit(graph)
        score_nonzero = structural_equivalence_score(graph, nonzero.embeddings_)
        score_naive = structural_equivalence_score(graph, naive.embeddings_)
        assert score_nonzero > score_naive + 0.1

    def test_private_methods_beat_gnn_baselines(self, graph, training_config):
        """The Figure-3 ordering: SE-PrivGEmb above the aggregation-perturbation GNNs."""
        privacy = PrivacyConfig(epsilon=3.5)
        se_priv = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=training_config,
            privacy_config=privacy,
            seed=2,
        ).fit(graph)
        se_priv_score = structural_equivalence_score(graph, se_priv.embeddings_)

        for baseline_name in ("gap", "progap"):
            baseline = get_baseline(
                baseline_name,
                training_config=training_config,
                privacy_config=privacy,
                seed=2,
            )
            baseline_score = structural_equivalence_score(graph, baseline.fit_transform(graph))
            assert se_priv_score > baseline_score

    def test_privacy_budget_controls_training_length(self, graph, training_config):
        """Smaller ε must stop training earlier (Algorithm 2 lines 8-10)."""
        def epochs_at(epsilon):
            trainer = SEPrivGEmbTrainer(
                DegreeProximity(),
                training_config=training_config.with_updates(epochs=10_000),
                privacy_config=PrivacyConfig(epsilon=epsilon),
                seed=0,
            )
            return trainer.fit(graph, epochs=1).max_private_epochs()

        assert epochs_at(0.5) < epochs_at(2.0) < epochs_at(3.5)

    def test_post_processing_keeps_embeddings_usable_for_both_tasks(self, graph):
        """Theorem 2: downstream tasks consume the same private embeddings."""
        config = TrainingConfig(
            embedding_dim=16, batch_size=64, learning_rate=0.1, negative_samples=3, epochs=20
        )
        split = make_link_prediction_split(graph, seed=3)
        embeddings = SEPrivGEmbTrainer(
            DegreeProximity(),
            training_config=config,
            privacy_config=PrivacyConfig(epsilon=3.5),
            seed=3,
        ).fit_transform(split.training_graph)
        auc = link_prediction_auc(embeddings, split)
        strucequ = structural_equivalence_score(split.training_graph, embeddings)
        assert 0.0 <= auc <= 1.0
        assert -1.0 <= strucequ <= 1.0


class TestNoiselessLimit:
    """With noise and clipping all but off, SE-PrivGEmb learns what SE-GEmb does.

    DP-SGD is SGD plus clipping plus noise.  σ = 0.02 and C = 0.5 at an
    ε target of 1e12 leave the 200 steps nearly exact; ``"batch"`` divides
    the noised sum by ``B``, so ``η = B·0.1`` descends as SE-GEmb does at
    ``η = 0.1``, and the final iterate is published.  Measured on the
    300-node chameleon stand-in: ΔAUC +0.0025, +0.0032 and −0.0131 at fit
    seeds 0, 1 and 2.  ``"per_row"`` at ``η = 0.1`` falls 0.12–0.19 below,
    which this gate catches.
    """

    STEPS = 200
    REFERENCE_RATE = 0.1

    @pytest.fixture(scope="class")
    def task(self):
        split = make_link_prediction_split(load_dataset("chameleon"), seed=0)
        proximity = DeepWalkProximity().compute(split.training_graph)
        return split, proximity

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noiseless_private_fit_scores_as_se_gemb(self, task, seed):
        split, proximity = task
        graph = split.training_graph
        config = TrainingConfig(learning_rate=self.REFERENCE_RATE, epochs=self.STEPS)
        reference = SEGEmbTrainer(proximity, config=config, seed=seed).fit(graph)
        private = SEPrivGEmbTrainer(
            proximity,
            training_config=config.with_updates(
                learning_rate=self.REFERENCE_RATE * config.batch_size
            ),
            privacy_config=PrivacyConfig(
                epsilon=1e12, noise_multiplier=0.02, clipping_threshold=0.5
            ),
            perturbation="nonzero",
            gradient_normalization="batch",
            iterate_averaging=False,
            seed=seed,
        ).fit(graph)
        assert private.result_.epochs_run == self.STEPS
        exact = link_prediction_auc(reference.embeddings_, split)
        noiseless = link_prediction_auc(private.embeddings_, split)
        assert exact > 0.65  # the reference learns, so matching it is not vacuous
        assert abs(noiseless - exact) <= 0.02, (noiseless, exact)

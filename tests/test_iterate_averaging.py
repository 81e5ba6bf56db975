"""Tests for the moved-rows iterate average.

:class:`~repro.engine.hooks.IterateAveragingHook` publishes
``W_T + D/T`` with ``D = Σ_u (u−1)·δ_u`` kept on the rows each step moved.
These tests hold it to the dense definition (:mod:`averaging_oracle`) on
seeded fits of every perturbation and normalisation, and check what the
hook keeps and times.
"""

from __future__ import annotations

import numpy as np
import pytest
from averaging_oracle import DenseIterateSums

from repro import PrivacyConfig, TrainingConfig
from repro.embedding.private_trainer import SEPrivGEmbTrainer
from repro.engine import IterateAveragingHook, StepProfiler
from repro.graph import load_dataset
from repro.proximity import DegreeProximity

TRAINING = TrainingConfig(
    embedding_dim=8, batch_size=16, learning_rate=0.1, negative_samples=3, epochs=1
)
PRIVACY = PrivacyConfig(
    epsilon=3.5, delta=1e-5, noise_multiplier=5.0, clipping_threshold=2.0
)
#: the published average agrees with the dense sums to this relative error
RTOL = 1e-12


@pytest.fixture(scope="module")
def graph():
    # 150 nodes: more rows than either scratch holds, so naive Eq. 6 takes
    # the dense branch while non-zero Eq. 9 stays on the moved rows
    return load_dataset("smallworld", num_nodes=150, seed=4)


def _private_engine(graph, *, perturbation, normalization, seed=3):
    trainer = SEPrivGEmbTrainer(
        DegreeProximity(), training_config=TRAINING, privacy_config=PRIVACY,
        perturbation=perturbation, gradient_normalization=normalization,
        seed=seed,
    )
    trainer._setup(graph, np.random.default_rng(seed))
    return trainer.engine


def _averager(engine) -> IterateAveragingHook:
    (hook,) = (h for h in engine.hooks if isinstance(h, IterateAveragingHook))
    return hook


def _assert_close(actual, expected):
    """Entrywise within ``RTOL``, relative to the matrix's largest entry."""
    np.testing.assert_allclose(
        actual, expected, rtol=RTOL, atol=RTOL * float(np.abs(expected).max())
    )


class TestMatchesDenseOracle:
    @pytest.mark.parametrize("normalization", ["per_row", "batch"])
    @pytest.mark.parametrize("perturbation", ["nonzero", "naive"])
    def test_published_average_matches_dense_sums(self, graph, perturbation, normalization):
        engine = _private_engine(graph, perturbation=perturbation, normalization=normalization)
        oracle = DenseIterateSums()
        engine.hooks += (oracle,)
        result = engine.run(60)

        mean_in, mean_out = oracle.means()
        _assert_close(result.embeddings, mean_in)
        _assert_close(result.context_embeddings, mean_out)
        # and it is an average, not the final iterate
        assert not np.array_equal(result.embeddings, engine.model.w_in)

    def test_single_step_publishes_the_only_iterate(self, graph):
        engine = _private_engine(graph, perturbation="nonzero", normalization="per_row")
        result = engine.run(1)
        assert np.array_equal(result.embeddings, engine.model.w_in)
        assert np.array_equal(result.context_embeddings, engine.model.w_out)
        assert result.embeddings is not engine.model.w_in


class TestHookState:
    def test_finish_in_place_releases_the_buffers(self, graph):
        engine = _private_engine(graph, perturbation="nonzero", normalization="per_row")
        averager = _averager(engine)
        engine.run(5)
        assert averager.steps == 5
        assert averager.correction_w_in is None and averager.correction_w_out is None

    def test_refit_restarts_the_average(self, graph):
        engine = _private_engine(graph, perturbation="nonzero", normalization="batch")
        oracle = DenseIterateSums()
        engine.hooks += (oracle,)
        engine.run(4)
        second = engine.run(6)
        assert _averager(engine).steps == 6
        _assert_close(second.embeddings, oracle.means()[0])

    def test_profiler_times_the_averaging_phase(self, graph):
        engine = _private_engine(graph, perturbation="nonzero", normalization="per_row")
        engine.hooks += (StepProfiler(),)
        profile = engine.run(4).profile
        assert profile.phase_seconds["averaging"] > 0
        assert "averaging" in profile.to_dict()["phase_mean_seconds"]

"""Tests for the moved-rows iterate average.

:class:`~repro.engine.hooks.IterateAveragingHook` publishes
``W_T + D/T`` with ``D = Σ_u (u−1)·δ_u`` kept on the rows each step moved.
These tests hold it to the dense definition (:mod:`averaging_oracle`) on
seeded fits of every perturbation and normalisation, pin the hogwild
pool's arithmetic, and check what the hook keeps and times.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from averaging_oracle import DenseIterateSums

from repro import PrivacyConfig, TrainingConfig
from repro.embedding import SGDOptimizer, SkipGramModel
from repro.embedding.private_trainer import SEPrivGEmbTrainer
from repro.engine import IterateAveragingHook, StepProfile, StepProfiler
from repro.engine.hogwild import WorkerReport, _merge_run, _SharedAccumulator
from repro.engine.workspace import MovedRows
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

    def test_pooled_correction_matches_dense_sums_in_float64(self, graph):
        """``W_T + D/T``: the float64 value a pool publishes."""
        engine = _private_engine(graph, perturbation="nonzero", normalization="per_row")
        averager = _averager(engine)
        averager.pooled = True
        oracle = DenseIterateSums()
        engine.hooks += (oracle,)
        result = engine.run(80)

        # a pooled run publishes the final iterates and keeps its correction
        assert np.array_equal(result.embeddings, engine.model.w_in)
        mean_in, mean_out = oracle.means()
        _assert_close(engine.model.w_in + averager.correction_w_in, mean_in)
        _assert_close(engine.model.w_out + averager.correction_w_out, mean_out)

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


# --------------------------------------------------------------------- #
# the hogwild pool: W_final + Σ_w D_w/T_w
# --------------------------------------------------------------------- #
def _shard_engine(model, slots):
    """What the hook reads of an engine: the model, the moved-rows records, the
    ``W_out`` scratch's size and ``indptr``, no profiler."""
    workspace = SimpleNamespace(
        moved=(MovedRows(), MovedRows()),
        context_scratch=SimpleNamespace(slots=slots, indptr=np.arange(slots + 1)),
    )
    return SimpleNamespace(model=model, workspace=workspace, profiler=None)


class TestPooledCorrections:
    def test_pool_publishes_the_global_clock_average_of_round_robin_shards(self):
        """Shards taking turns: the pool is the global Polyak average up to a known shift.

        Shard ``w`` (0-based) of ``S`` runs its ``u``-th step at global step
        ``t = (u−1)·S + w + 1``, weighted ``(t−1)/T = (u−1)/T_w + w/T`` in
        the global average, against ``(u−1)/T_w`` in the shard's correction.
        So the global average is the pooled result plus ``w/T`` times shard
        ``w``'s total displacement.
        """
        rng = np.random.default_rng(0)
        nodes, dim, slots, shards, rounds = 40, 4, 12, 3, 25
        model = SkipGramModel(nodes, dim, seed=0)
        optimizer = SGDOptimizer(0.3)
        engines = [_shard_engine(model, slots) for _ in range(shards)]
        hooks = [IterateAveragingHook() for _ in range(shards)]
        for hook, engine in zip(hooks, engines, strict=True):
            hook.pooled = True
            hook.on_train_start(engine)
        oracle = DenseIterateSums()
        oracle.on_train_start(engines[0])
        displacement = np.zeros((shards, 2, nodes, dim))

        for step in range(rounds):
            for shard, (hook, engine) in enumerate(zip(hooks, engines, strict=True)):
                matrices = (model.w_in, model.w_out)
                for k, (matrix, moved) in enumerate(zip(matrices, engine.workspace.moved)):
                    count = int(rng.integers(1, slots + 1))
                    rows = np.sort(rng.choice(nodes, size=count, replace=False))
                    gradients = rng.standard_normal((count, dim))
                    before = matrix[rows]
                    moved.step = optimizer.descend_unique_rows(matrix, rows, gradients)
                    displacement[shard, k, rows] += before - matrix[rows]
                    moved.rows = rows
                hook.after_step(engine, step, 0.0)
                oracle.after_step(engine, step, 0.0)
        for hook, engine in zip(hooks, engines, strict=True):
            assert hook.on_train_end(engine, None) is None  # pooled: nothing published

        accumulator = _SharedAccumulator(model.w_in.shape)
        try:
            for hook in hooks:
                accumulator.add(hook.correction_w_in, hook.correction_w_out)
            pooled = (
                model.w_in + accumulator.correction_w_in,
                model.w_out + accumulator.correction_w_out,
            )
            reports = [
                WorkerReport(
                    shard=shard, steps=rounds, losses=[], profile=StepProfile(),
                    averaged_steps=rounds,
                )
                for shard in range(shards)
            ]
            run = _merge_run(model, reports, accumulator, [rounds] * shards, 0)
        finally:
            accumulator.destroy()

        # the pool publishes W_final + Σ_w D_w/T_w
        assert np.array_equal(run.result.embeddings, pooled[0])
        assert np.array_equal(run.result.context_embeddings, pooled[1])
        total = shards * rounds
        shift = sum(shard / total * displacement[shard] for shard in range(shards))
        for k, mean in enumerate(oracle.means()):
            _assert_close(pooled[k] + shift[k], mean)

    def test_pool_without_averaging_publishes_final_iterates(self):
        model = SkipGramModel(10, 3, seed=1)
        report = WorkerReport(shard=0, steps=4, losses=[], profile=StepProfile())
        run = _merge_run(model, [report], None, [4], 0)
        assert np.array_equal(run.result.embeddings, model.w_in)
        assert run.result.embeddings is not model.w_in

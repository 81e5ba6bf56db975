"""Tests for the sharded shared-memory (hogwild) training subsystem.

Covers the shared-memory model lifecycle, shard planning, profile merging,
the privacy accountant's shard composition, the exact workers=1 pins, the
hogwild-vs-serial quality tolerance, crash/cleanup behaviour, and the
fork-unavailable fallback.
"""

from __future__ import annotations

import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.config import PrivacyConfig, TrainingConfig
from repro.embedding import (
    SEGEmbTrainer,
    SEPrivGEmbTrainer,
    SharedModelHandle,
    SharedSkipGramModel,
    SkipGramModel,
)
from repro.embedding.shared_model import SHARED_SEGMENT_PREFIX
from repro.engine import StepProfile, plan_shards, run_hogwild
from repro.exceptions import PrivacyError, TrainingError
from repro.graph import generators
from repro.privacy import RdpAccountant
from repro.proximity import get_proximity
from repro.utils import mp as repro_mp

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="hogwild workers require the fork start method",
)

TRAIN = TrainingConfig(
    embedding_dim=8, epochs=40, batch_size=16, learning_rate=0.05, negative_samples=2
)
PRIVACY = PrivacyConfig(
    epsilon=2.0, delta=1e-5, noise_multiplier=2.0, clipping_threshold=1.0
)


def _graph(seed: int = 1, nodes: int = 150):
    return generators.barabasi_albert_graph(nodes, 3, seed=seed)


def _shm_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SHARED_SEGMENT_PREFIX}*")


# --------------------------------------------------------------------- #
# shared model lifecycle
# --------------------------------------------------------------------- #
class TestSharedSkipGramModel:
    def test_init_matches_plain_model_bitwise(self):
        plain = SkipGramModel(50, 8, seed=3)
        shared = SharedSkipGramModel(50, 8, seed=3)
        try:
            assert np.array_equal(plain.w_in, shared.w_in)
            assert np.array_equal(plain.w_out, shared.w_out)
        finally:
            shared.release()

    def test_attach_sees_owner_writes(self):
        owner = SharedSkipGramModel(20, 4, seed=0)
        try:
            view = SharedSkipGramModel.attach(owner.handle)
            owner.w_in[3, :] = 42.0
            assert np.array_equal(view.w_in[3], np.full(4, 42.0))
            view.release()
        finally:
            owner.release()

    def test_release_unlinks_segments(self):
        model = SharedSkipGramModel(20, 4, seed=0)
        names = {model.handle.w_in_name, model.handle.w_out_name}
        assert all(os.path.exists(f"/dev/shm/{n}") for n in names)
        model.release()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)

    def test_release_is_idempotent_and_keeps_values(self):
        model = SharedSkipGramModel(20, 4, seed=0)
        model.w_in[0, 0] = 7.5
        model.release()
        model.release()
        assert model.w_in[0, 0] == 7.5
        with pytest.raises(TrainingError):
            _ = model.handle

    def test_garbage_collection_unlinks(self):
        model = SharedSkipGramModel(20, 4, seed=0)
        handle = model.handle
        names = {handle.w_in_name, handle.w_out_name}
        del model
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)

    def test_accumulator_garbage_collection_unlinks(self):
        # SHM001 regression (repro.analysis): _SharedAccumulator used to
        # rely solely on run_hogwild's finally for cleanup — an abandoned
        # accumulator leaked its two segments into /dev/shm until process
        # exit.  The weakref.finalize backstop must release them at GC.
        from repro.engine.hogwild import _SharedAccumulator

        before = set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))
        accumulator = _SharedAccumulator((8, 4))
        names = {block.name for block in accumulator._blocks}
        assert all(os.path.exists(f"/dev/shm/{n}") for n in names)
        del accumulator
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)
        after = set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))
        assert after <= before

    def test_accumulator_destroy_detaches_finalizer(self):
        from repro.engine.hogwild import _SharedAccumulator

        accumulator = _SharedAccumulator((8, 4))
        names = {block.name for block in accumulator._blocks}
        accumulator.destroy()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)
        assert not accumulator._finalizer.alive

    def test_handle_roundtrip_fields(self):
        model = SharedSkipGramModel(20, 4, seed=0, dtype=np.float32)
        try:
            handle = model.handle
            assert isinstance(handle, SharedModelHandle)
            assert handle.num_nodes == 20
            assert handle.embedding_dim == 4
        finally:
            model.release()


# --------------------------------------------------------------------- #
# shard planning and profile merging
# --------------------------------------------------------------------- #
class TestPlanShards:
    def test_balanced_split(self):
        assert plan_shards(10, 3) == [4, 3, 3]
        assert plan_shards(9, 3) == [3, 3, 3]

    def test_no_empty_shards(self):
        assert plan_shards(2, 4) == [1, 1]

    def test_invalid(self):
        with pytest.raises(TrainingError):
            plan_shards(0, 2)
        with pytest.raises(TrainingError):
            plan_shards(5, 0)


class TestStepProfileMerge:
    def test_merge_sums_phases_and_workers(self):
        a = StepProfile(steps=5, phase_seconds={"sample": 1.0, "descend": 2.0}, workers=1)
        b = StepProfile(steps=7, phase_seconds={"sample": 0.5, "perturb": 1.5}, workers=1)
        merged = StepProfile.merge([a, b])
        assert merged.steps == 12
        assert merged.workers == 2
        assert merged.phase_seconds["sample"] == pytest.approx(1.5)
        assert merged.phase_seconds["perturb"] == pytest.approx(1.5)
        assert merged.to_dict()["workers"] == 2

    def test_merge_empty(self):
        merged = StepProfile.merge([])
        assert merged.steps == 0
        assert merged.workers == 1


# --------------------------------------------------------------------- #
# accountant shard composition
# --------------------------------------------------------------------- #
class TestStepShards:
    def test_shards_equal_serial_exactly(self):
        serial = RdpAccountant(noise_multiplier=1.5, sampling_rate=0.05)
        sharded = RdpAccountant(noise_multiplier=1.5, sampling_rate=0.05)
        for _ in range(60):
            serial.step()
        sharded.step_shards([20, 20, 20])
        assert sharded.steps == serial.steps
        s1 = serial.get_privacy_spent(1e-5)
        s2 = sharded.get_privacy_spent(1e-5)
        assert s2.epsilon == s1.epsilon
        assert np.array_equal(sharded.total_rdp, serial.total_rdp)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_k_workers_t_over_k_steps(self, workers):
        total = 90
        serial = RdpAccountant(noise_multiplier=2.0, sampling_rate=0.1)
        serial.step(total)
        sharded = RdpAccountant(noise_multiplier=2.0, sampling_rate=0.1)
        counts = plan_shards(total, workers)
        sharded.step_shards(counts)
        assert sum(counts) == total
        assert (
            sharded.get_privacy_spent(1e-5).epsilon
            == serial.get_privacy_spent(1e-5).epsilon
        )

    def test_negative_count_rejected(self):
        acc = RdpAccountant(noise_multiplier=1.0, sampling_rate=0.1)
        with pytest.raises(PrivacyError):
            acc.step_shards([5, -1])


# --------------------------------------------------------------------- #
# fork fallback
# --------------------------------------------------------------------- #
class TestForkFallback:
    def test_resolve_warns_and_degrades(self, monkeypatch):
        monkeypatch.setattr(repro_mp, "start_method", lambda: "spawn")
        with pytest.warns(RuntimeWarning, match="falling back to the serial path"):
            assert repro_mp.resolve_fork_workers(4, "hogwild training") == 1

    def test_resolve_noop_for_serial(self, monkeypatch):
        monkeypatch.setattr(repro_mp, "start_method", lambda: "spawn")
        assert repro_mp.resolve_fork_workers(1, "hogwild training") == 1

    def test_trainer_falls_back_to_serial_result(self, monkeypatch):
        monkeypatch.setattr(repro_mp, "start_method", lambda: "spawn")
        graph = _graph()
        serial = SEGEmbTrainer(proximity=get_proximity("degree"), config=TRAIN, seed=5)
        serial.fit(graph)
        degraded = SEGEmbTrainer(
            proximity=get_proximity("degree"), config=TRAIN, seed=5, workers=3
        )
        with pytest.warns(RuntimeWarning, match="falling back to the serial path"):
            degraded.fit(graph)
        assert np.array_equal(serial.embeddings_, degraded.embeddings_)


# --------------------------------------------------------------------- #
# trainer parity and hogwild end-to-end
# --------------------------------------------------------------------- #
class TestWorkersOne:
    def test_nonprivate_workers_one_is_bitwise_serial(self):
        graph = _graph()
        serial = SEGEmbTrainer(proximity=get_proximity("degree"), config=TRAIN, seed=5)
        serial.fit(graph)
        pinned = SEGEmbTrainer(
            proximity=get_proximity("degree"), config=TRAIN, seed=5, workers=1
        )
        pinned.fit(graph)
        assert np.array_equal(serial.embeddings_, pinned.embeddings_)
        assert serial.result_.losses == pinned.result_.losses

    def test_private_workers_one_is_bitwise_serial(self):
        graph = _graph()
        serial = SEPrivGEmbTrainer(
            proximity=get_proximity("degree"),
            training_config=TRAIN,
            privacy_config=PRIVACY,
            seed=5,
        )
        serial.fit(graph)
        pinned = SEPrivGEmbTrainer(
            proximity=get_proximity("degree"),
            training_config=TRAIN,
            privacy_config=PRIVACY,
            seed=5,
            workers=1,
        )
        pinned.fit(graph)
        assert np.array_equal(serial.embeddings_, pinned.embeddings_)
        assert (
            serial.result_.privacy_spent.epsilon
            == pinned.result_.privacy_spent.epsilon
        )

    def test_invalid_workers_rejected(self):
        with pytest.raises(TrainingError):
            SEGEmbTrainer(proximity=get_proximity("degree"), config=TRAIN, workers=0)


class TestSingleShard:
    def test_inline_averaged_run_equals_serial_engine(self):
        # one shard runs in-process, without a pool: its result must be the
        # serial engine's, built by the same builder from the shard's seed
        graph = _graph()

        def private_setup():
            trainer = SEPrivGEmbTrainer(
                proximity=get_proximity("degree"),
                training_config=TRAIN,
                privacy_config=PRIVACY,
                seed=5,
            )
            trainer._setup(graph, np.random.default_rng(5))
            return trainer

        pooled = private_setup()
        run = run_hogwild(
            model=pooled.model,
            engine_factory=pooled._build_engine,
            total_steps=12,
            workers=1,
            seed=7,
        )

        serial = private_setup()
        shard_seed = np.random.SeedSequence(7).spawn(1)[0]
        engine = serial._build_engine(np.random.default_rng(shard_seed))
        expected = engine.run(12)

        assert np.array_equal(run.result.embeddings, expected.embeddings)
        assert np.array_equal(run.result.context_embeddings, expected.context_embeddings)
        assert not np.array_equal(run.result.embeddings, pooled.model.w_in)
        assert run.result.losses == expected.losses
        assert run.result.epochs_run == 12
        assert run.charged_steps == [12]
        assert run.reports[0].averaged_steps == 12


@FORK_ONLY
class TestHogwildTraining:
    def test_nonprivate_two_workers_trains(self):
        graph = _graph()
        trainer = SEGEmbTrainer(
            proximity=get_proximity("degree"), config=TRAIN, seed=5, workers=2
        )
        trainer.fit(graph)
        assert np.isfinite(trainer.embeddings_).all()
        assert trainer.result_.epochs_run == TRAIN.epochs
        assert len(trainer.result_.losses) == TRAIN.epochs
        assert [r.steps for r in trainer.last_worker_reports] == plan_shards(
            TRAIN.epochs, 2
        )
        pids = {r.pid for r in trainer.last_worker_reports}
        assert len(pids) == 2 and os.getpid() not in pids
        assert not _shm_segments()

    def test_hogwild_loss_close_to_serial(self):
        graph = _graph(nodes=300)
        config = TrainingConfig(
            embedding_dim=16,
            epochs=120,
            batch_size=32,
            learning_rate=0.05,
            negative_samples=3,
        )
        serial = SEGEmbTrainer(proximity=get_proximity("degree"), config=config, seed=5)
        serial.fit(graph)
        hogwild = SEGEmbTrainer(
            proximity=get_proximity("degree"), config=config, seed=5, workers=2
        )
        hogwild.fit(graph)
        tail = 20
        serial_tail = float(np.mean(serial.result_.losses[-tail:]))
        hogwild_tail = float(np.mean(hogwild.result_.losses[-tail:]))
        # benign races + different shard streams: same optimisation quality,
        # not the same iterates — final losses agree to a loose tolerance
        assert hogwild_tail == pytest.approx(serial_tail, rel=0.35)

    def test_private_shard_accounting_matches_serial(self):
        graph = _graph()
        serial = SEPrivGEmbTrainer(
            proximity=get_proximity("degree"),
            training_config=TRAIN,
            privacy_config=PRIVACY,
            seed=5,
        )
        serial.fit(graph)
        hogwild = SEPrivGEmbTrainer(
            proximity=get_proximity("degree"),
            training_config=TRAIN,
            privacy_config=PRIVACY,
            seed=5,
            workers=2,
        )
        hogwild.fit(graph)
        assert (
            hogwild.result_.privacy_spent.epsilon
            == serial.result_.privacy_spent.epsilon
        )
        assert (
            hogwild.result_.privacy_spent.steps == serial.result_.privacy_spent.steps
        )
        assert sum(r.steps for r in hogwild.last_worker_reports) == (
            serial.result_.privacy_spent.steps
        )
        assert not _shm_segments()

    def test_private_budget_truncation_matches_serial(self):
        graph = _graph()
        # a budget that admits 15 of the 40 requested steps, and one that
        # admits none
        for epsilon, sigma in ((1.0, 2.0), (0.8, 1.0)):
            tight = PrivacyConfig(
                epsilon=epsilon, delta=1e-5, noise_multiplier=sigma, clipping_threshold=1.0
            )
            serial = SEPrivGEmbTrainer(
                proximity=get_proximity("degree"),
                training_config=TRAIN,
                privacy_config=tight,
                seed=5,
            )
            serial.fit(graph)
            hogwild = SEPrivGEmbTrainer(
                proximity=get_proximity("degree"),
                training_config=TRAIN,
                privacy_config=tight,
                seed=5,
                workers=2,
            )
            hogwild.fit(graph)
            budget = serial.accountant.max_steps(tight.epsilon, tight.delta)
            assert budget < TRAIN.epochs
            assert serial.result_.epochs_run == budget
            assert hogwild.result_.epochs_run == budget
            assert serial.result_.stopped_early and hogwild.result_.stopped_early
            assert (
                hogwild.result_.privacy_spent.epsilon
                == serial.result_.privacy_spent.epsilon
            )
            assert serial.result_.privacy_spent.epsilon <= tight.epsilon
            assert hogwild.result_.privacy_spent.epsilon <= tight.epsilon
            assert not _shm_segments()

    def test_merged_profile_reports_worker_count(self):
        graph = _graph()
        trainer = SEGEmbTrainer(
            proximity=get_proximity("degree"), config=TRAIN, seed=5, workers=2
        )
        trainer.fit(graph)
        profiles = [r.profile for r in trainer.last_worker_reports]
        merged = StepProfile.merge(profiles)
        assert merged.workers == 2
        assert merged.steps == TRAIN.epochs

    def test_worker_memory_stays_flat(self):
        graph = _graph()
        config = TrainingConfig(
            embedding_dim=8,
            epochs=160,
            batch_size=16,
            learning_rate=0.05,
            negative_samples=2,
        )
        trainer = SEGEmbTrainer(
            proximity=get_proximity("degree"), config=config, seed=5, workers=2
        )
        trainer.trace_hogwild_memory = True
        trainer.fit(graph)
        for report in trainer.last_worker_reports:
            assert report.traced_steps > 0
            # zero-allocation invariant per worker: the measured window may
            # not grow the heap by more than a small constant overhead
            assert report.traced_bytes < 64 * 1024, report

    def test_refit_after_hogwild_works(self):
        graph = _graph()
        trainer = SEGEmbTrainer(
            proximity=get_proximity("degree"), config=TRAIN, seed=5, workers=2
        )
        trainer.fit(graph)
        first = trainer.embeddings_.copy()
        trainer.fit(graph)
        # hogwild is reproducible in distribution only (race interleavings
        # differ run to run), so refit checks health, not bitwise equality
        assert trainer.embeddings_.shape == first.shape
        assert np.isfinite(trainer.embeddings_).all()
        assert not _shm_segments()


@FORK_ONLY
class TestCrashCleanup:
    def test_worker_crash_raises_and_unlinks(self):
        model = SharedSkipGramModel(30, 4, seed=0)
        names = {model.handle.w_in_name, model.handle.w_out_name}

        def exploding_factory(rng):
            raise RuntimeError("boom in worker")

        with pytest.raises(TrainingError, match="shard"):
            run_hogwild(
                model=model,
                engine_factory=exploding_factory,
                total_steps=8,
                workers=2,
                seed=0,
            )
        model.release()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)
        assert not _shm_segments()

    def test_released_model_rejected(self):
        model = SharedSkipGramModel(30, 4, seed=0)
        model.release()
        with pytest.raises(TrainingError):
            run_hogwild(
                model=model,
                engine_factory=lambda rng: None,
                total_steps=4,
                workers=2,
                seed=0,
            )

"""Tests for the perturbation noise ring (``repro.privacy.noise``).

The ring changes *who* draws the Gaussian noise (a background filler or the
consumer itself), never *which* values are drawn: every read equals the
inline ``standard_normal`` stream of the SFC64 generator its seed names
(:func:`~repro.privacy.noise.noise_generator`).
These tests pin that equality at block boundaries and through whole fits,
the filler's lifecycle (never alive after a run, on any exit path, nor at
an orchestrator fork), and the zero-allocation contract of the workspace
path.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import analyze_paths, get_rule
from repro.config import PrivacyConfig, TrainingConfig
from repro.embedding import SEPrivGEmbTrainer, get_perturbation
from repro.embedding import perturbation as perturbation_module
from repro.engine import EngineHook, StepWorkspace
from repro.exceptions import ConfigurationError
from repro.experiments import ExperimentSettings, execute
from repro.experiments.orchestrator import specs_for_settings
from repro.graph import load_dataset
from repro.privacy import noise as noise_module
from repro.privacy.noise import NoiseRing, noise_generator
from repro.proximity import DegreeProximity

FILLER = "repro-noise-filler"
TRAIN = TrainingConfig(
    embedding_dim=8, batch_size=16, learning_rate=0.1, negative_samples=3, epochs=6
)
PRIVACY = PrivacyConfig(
    epsilon=50.0, delta=1e-5, noise_multiplier=2.0, clipping_threshold=1.0
)
STD = PRIVACY.noise_multiplier * PRIVACY.clipping_threshold


def _fillers() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == FILLER]


def _inline(seed, count: int) -> np.ndarray:
    """The first ``count`` draws of the SFC64 stream a ring seeded with ``seed`` reads."""
    return noise_generator(seed).standard_normal(count)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("smallworld", num_nodes=80, seed=4)


@pytest.fixture
def small_ring(monkeypatch):
    """Build rings of ``depth`` blocks of ``block_size`` draws."""

    def build(seed, block_size=100, depth=3):
        monkeypatch.setattr(noise_module, "BLOCK_SIZE", block_size)
        monkeypatch.setattr(noise_module, "RING_DEPTH", depth)
        return NoiseRing(seed)

    return build


def _trainer(graph, *, perturbation="nonzero", seed=7, **kwargs):
    trainer = SEPrivGEmbTrainer(
        proximity=DegreeProximity(),
        training_config=TRAIN,
        privacy_config=PRIVACY,
        perturbation=perturbation,
        seed=seed,
        **kwargs,
    )
    trainer._setup(graph, np.random.default_rng(seed))
    return trainer


def _small_blocks(trainer, small_ring):
    """Swap in a small-block ring over the same (still untouched) generator."""
    strategy = trainer.perturbation
    strategy.noise = small_ring(strategy.noise._rng)


class _Probe(EngineHook):
    """Record the live filler threads at every step; optionally fail."""

    def __init__(self, fail_at: int | None = None) -> None:
        self.seen: list[int] = []
        self.fail_at = fail_at

    def after_step(self, engine, epoch, loss) -> None:
        self.seen.append(len(_fillers()))
        if epoch == self.fail_at:
            raise RuntimeError("hook failure")


class _FailingGenerator:
    """Fills ``good`` blocks like a ring seeded with ``seed``, then raises."""

    def __init__(self, seed: int, good: int) -> None:
        self._rng = noise_generator(seed)
        self._good = good

    def standard_normal(self, out):
        if self._good == 0:
            raise MemoryError("filler failure")
        self._good -= 1
        return self._rng.standard_normal(out=out)


class _GatedGenerator:
    """Draws like a ring seeded with ``seed``, but only while ``gate`` is set."""

    def __init__(self, seed: int, gate: threading.Event) -> None:
        self._rng = noise_generator(seed)
        self._gate = gate

    def standard_normal(self, out):
        self._gate.wait()
        return self._rng.standard_normal(out=out)


class _ZeroGenerator:
    """A generator stand-in whose 'standard normals' are all zero."""

    def standard_normal(self, out):
        out[...] = 0.0
        return out


# --------------------------------------------------------------------- #
# stream equality
# --------------------------------------------------------------------- #
class TestStreamEquality:
    SIZES = (7, 93, 100, 1, 250, 49, 300)  # straddle 100-draw blocks

    @pytest.mark.parametrize("prefetch", [False, True], ids=["sync", "thread"])
    def test_reads_equal_inline_draws_across_block_boundaries(self, prefetch, small_ring):
        ring = small_ring(np.random.default_rng(5))
        if prefetch:
            with ring.prefetching():
                reads = [ring.draw(size, 1.0) for size in self.SIZES]
        else:
            reads = [ring.draw(size, 1.0) for size in self.SIZES]
        assert np.array_equal(np.concatenate(reads), _inline(5, sum(self.SIZES)))

    def test_stream_survives_constant_thread_switching(self, small_ring):
        """Tiny blocks, a 1 µs switch interval: a lost or reordered block shows."""
        sizes = np.random.default_rng(9).integers(1, 40, size=3000)
        ring = small_ring(3, block_size=8, depth=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ring.prefetching():
                reads = [ring.draw(int(size), 1.0) for size in sizes]
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(np.concatenate(reads), _inline(3, int(sizes.sum())))

    def test_scaling_matches_multiplying_inline_draws(self, small_ring):
        out = np.empty((6, 50))
        small_ring(11, block_size=64).fill(out, 2.5)
        assert np.array_equal(out.ravel(), _inline(11, 300) * 2.5)

    def test_rejects_non_float64_or_strided_targets(self, small_ring):
        ring = small_ring(0, block_size=16)
        with pytest.raises(ConfigurationError, match="C-contiguous float64"):
            ring.fill(np.empty(4, dtype=np.float32), 1.0)
        with pytest.raises(ConfigurationError, match="C-contiguous float64"):
            ring.fill(np.empty((4, 4))[:, 0], 1.0)

    def test_dense_naive_draw_larger_than_one_block(self, graph, small_ring):
        """Eq. 6's dense |V| x r draws span many blocks and still equal inline."""
        trainer = _trainer(graph, perturbation="naive")
        model = trainer.model
        # one workspace per strategy: clipping mutates the gradient buffers
        # and each workspace holds its own result
        workspaces = [StepWorkspace.for_training(model, trainer._sampler) for _ in range(2)]
        batch = trainer._sampler.sample_batch_arrays(workspaces[0])
        gradients = [
            trainer.objective.batch_gradients(model.w_in, model.w_out, batch, workspace=ws)
            for ws in workspaces
        ]
        num_nodes, dim = graph.num_nodes, TRAIN.embedding_dim
        cells = num_nodes * dim
        noisy = get_perturbation("naive", 1.0, 2.0)
        noisy.noise = small_ring(21)
        clean = get_perturbation("naive", 1.0, 2.0)
        clean.noise = small_ring(0)
        clean.noise._rng = _ZeroGenerator()
        result = noisy.perturb_batch(gradients[0], workspaces[0])
        sums = clean.perturb_batch(gradients[1], workspaces[1])
        noise = _inline(21, 2 * cells) * (2.0 * 1.0 * len(gradients[0]))  # σ·B·C
        assert cells > 100
        assert np.array_equal(result.w_in_rows, np.arange(num_nodes))
        assert np.array_equal(
            result.w_in_sums, sums.w_in_sums + noise[:cells].reshape(num_nodes, dim)
        )
        assert np.array_equal(
            result.w_out_sums, sums.w_out_sums + noise[cells:].reshape(num_nodes, dim)
        )

    def test_fit_reads_the_perturbation_child_stream(self, graph, monkeypatch):
        """A serial fit's noise is the inline stream of ``rng.spawn(1)[0]``."""
        reads: list[np.ndarray] = []
        original = NoiseRing.fill

        def recording_fill(self, out, std):
            result = original(self, out, std)
            reads.append(result.ravel().copy())
            return result

        monkeypatch.setattr(NoiseRing, "fill", recording_fill)
        trainer = _trainer(graph, seed=13)
        trainer.engine.run(4)
        drawn = np.concatenate(reads)
        child = noise_generator(np.random.default_rng(13).spawn(1)[0])
        assert np.array_equal(drawn, child.standard_normal(drawn.size) * STD)

    def test_the_stream_is_sfc64_seeded_by_one_draw_of_the_ring_seed(self, small_ring):
        """Same seed, same bytes; distinct spawned children, distinct streams."""
        parent = np.random.default_rng(4)
        children = parent.spawn(2)
        state = parent.bit_generator.state
        reads = [small_ring(child).draw(250, 1.0) for child in children]
        assert parent.bit_generator.state == state  # nothing drawn from the parent
        assert not np.array_equal(reads[0], reads[1])
        again = np.random.default_rng(4).spawn(2)
        assert small_ring(again[0]).draw(250, 1.0).tobytes() == reads[0].tobytes()
        # an int seed and a generator of that seed name one stream
        assert small_ring(9).draw(250, 1.0).tobytes() == (
            small_ring(np.random.default_rng(9)).draw(250, 1.0).tobytes()
        )
        ring = small_ring(9)
        assert isinstance(ring._rng.bit_generator, np.random.SFC64)
        draw = int(np.random.default_rng(9).integers(0, 2**63 - 1))
        expected = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(draw))
        ).standard_normal(250)
        assert ring.draw(250, 1.0).tobytes() == expected.tobytes()

    def test_a_handed_generator_moves_on_by_one_draw(self, small_ring):
        """Two rings handed one generator read different noise; a restored state repeats it."""
        handed = np.random.default_rng(9)
        state = handed.bit_generator.state
        first = small_ring(handed).draw(250, 1.0)
        second = small_ring(handed).draw(250, 1.0)
        assert not np.array_equal(first, second)
        reference = np.random.default_rng(9)
        reference.integers(0, 2**63 - 1, size=2)
        assert handed.bit_generator.state == reference.bit_generator.state
        handed.bit_generator.state = state
        assert small_ring(handed).draw(250, 1.0).tobytes() == first.tobytes()


# --------------------------------------------------------------------- #
# whole fits
# --------------------------------------------------------------------- #
class TestFits:
    @pytest.mark.parametrize("perturbation", ["nonzero", "naive"])
    def test_thread_filled_and_synchronous_fits_are_byte_identical(
        self, graph, perturbation, small_ring
    ):
        embeddings = []
        for prefetch in (True, False):
            trainer = _trainer(graph, perturbation=perturbation)
            _small_blocks(trainer, small_ring)
            if not prefetch:
                trainer.engine.update_rule.running = nullcontext
            probe = _Probe()
            trainer.engine.hooks += (probe,)
            result = trainer.engine.run(TRAIN.epochs)
            assert probe.seen == [int(prefetch)] * TRAIN.epochs
            embeddings.append((result.embeddings, result.context_embeddings))
        (threaded_in, threaded_out), (sync_in, sync_out) = embeddings
        assert threaded_in.tobytes() == sync_in.tobytes()
        assert threaded_out.tobytes() == sync_out.tobytes()

    def test_two_train_calls_continue_the_stream_exactly(
        self, graph, monkeypatch, small_ring
    ):
        def build():
            strategy = get_perturbation("nonzero", 1.0, 2.0, seed=77)
            strategy.noise = small_ring(77, block_size=64)
            trainer = SEPrivGEmbTrainer(
                proximity=DegreeProximity(),
                training_config=TRAIN,
                privacy_config=PRIVACY,
                perturbation=strategy,
                iterate_averaging=False,
                seed=3,
            )
            trainer._setup(graph, np.random.default_rng(3))
            return trainer

        reads: list[np.ndarray] = []
        original = NoiseRing.fill

        def recording_fill(self, out, std):
            result = original(self, out, std)
            reads.append(result.ravel().copy())
            return result

        whole = build()
        assert whole.engine.run(5).epochs_run == 5
        monkeypatch.setattr(NoiseRing, "fill", recording_fill)
        split = build()
        assert split.engine.run(3).epochs_run == 3
        assert split.engine.run(2).epochs_run == 2
        assert split.model.w_in.tobytes() == whole.model.w_in.tobytes()
        assert split.model.w_out.tobytes() == whole.model.w_out.tobytes()
        drawn = np.concatenate(reads)
        assert np.array_equal(drawn, _inline(77, drawn.size) * STD)

    def test_a_fit_releases_only_the_ring_it_built(self, graph, monkeypatch, small_ring):
        built = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=TRAIN,
            privacy_config=PRIVACY, seed=3,
        ).fit(graph)
        assert built.perturbation.name == "nonzero"
        assert built.perturbation.noise is None

        strategy = get_perturbation("nonzero", 1.0, 2.0, seed=77)
        strategy.noise = ring = small_ring(77, block_size=64)
        reads: list[np.ndarray] = []
        original = NoiseRing.fill

        def recording_fill(self, out, std):
            result = original(self, out, std)
            reads.append(result.ravel().copy())
            return result

        monkeypatch.setattr(NoiseRing, "fill", recording_fill)
        trainer = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=TRAIN,
            privacy_config=PRIVACY, perturbation=strategy, seed=3,
        )
        trainer.fit(graph, epochs=3)
        trainer.fit(graph, epochs=2)
        # a caller's strategy keeps its ring: the second fit continues its stream
        assert strategy.noise is ring
        drawn = np.concatenate(reads)
        assert np.array_equal(drawn, _inline(77, drawn.size) * STD)


# --------------------------------------------------------------------- #
# filler lifecycle
# --------------------------------------------------------------------- #
class TestFillerLifecycle:
    def test_no_filler_survives_a_fit(self, graph):
        before = threading.active_count()
        trainer = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=TRAIN,
            privacy_config=PRIVACY, seed=1,
        ).fit(graph)
        assert trainer.result_.epochs_run == TRAIN.epochs
        assert not _fillers()
        assert threading.active_count() == before

    def test_no_filler_survives_a_hook_failure(self, graph):
        trainer = _trainer(graph)
        probe = _Probe(fail_at=2)
        trainer.engine.hooks += (probe,)
        with pytest.raises(RuntimeError, match="hook failure"):
            trainer.engine.run(TRAIN.epochs)
        assert probe.seen == [1, 1, 1]
        assert not _fillers()

    def test_no_filler_survives_an_early_stop(self, graph):
        tight = PrivacyConfig(
            epsilon=0.5, delta=1e-5, noise_multiplier=5.0, clipping_threshold=1.0
        )
        trainer = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=TRAIN.with_updates(epochs=500),
            privacy_config=tight, seed=1,
        ).fit(graph)
        assert trainer.result_.stopped_early
        assert not _fillers()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the orchestrator's worker pool requires the fork start method",
    )
    def test_no_filler_alive_when_the_orchestrator_forks(self, graph, monkeypatch):
        alive_at_fork: list[int] = []
        real_fork = os.fork

        def watching_fork():
            alive_at_fork.append(len(_fillers()))
            return real_fork()

        monkeypatch.setattr(os, "fork", watching_fork)
        serial = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=TRAIN,
            privacy_config=PRIVACY, seed=2,
        )
        serial.fit(graph)  # a threaded run just before the forks
        settings = ExperimentSettings(
            datasets=("smallworld",), dataset_scale=0.3, repeats=1,
            training=TRAIN, privacy=PRIVACY, seed=2,
        )
        specs = [
            specs_for_settings(
                "strucequ", "se_privgemb_deg", "smallworld", settings,
                perturbation=perturbation,
            )
            for perturbation in ("nonzero", "naive")
        ]
        report = execute(specs, workers=2)
        assert report.workers == 2 and report.computed == 2
        assert alive_at_fork and set(alive_at_fork) == {0}

    def test_filler_failure_raises_in_the_consumer(self, small_ring):
        ring = small_ring(0, block_size=32, depth=2)
        ring._rng = _FailingGenerator(0, good=2)
        outcome: dict = {}

        def consume():
            try:
                with ring.prefetching():
                    outcome["first"] = ring.draw(64, 1.0)
                    ring.draw(1, 1.0)
            except BaseException as exc:  # captured for the asserts below
                outcome["error"] = exc

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=30)
        assert not consumer.is_alive(), "the consumer hung on a dead filler"
        assert np.array_equal(outcome["first"], _inline(0, 64))
        assert isinstance(outcome["error"], MemoryError)
        assert not _fillers()
        with pytest.raises(MemoryError):  # the ring stays failed
            ring.draw(1, 1.0)
        with pytest.raises(MemoryError), ring.prefetching():
            pass
        assert not _fillers()

    def test_filler_failure_fails_the_fit(self, graph, small_ring):
        trainer = _trainer(graph)
        _small_blocks(trainer, small_ring)
        trainer.perturbation.noise._rng = _FailingGenerator(0, good=1)
        with pytest.raises(MemoryError, match="filler failure"):
            trainer.engine.run(TRAIN.epochs)
        assert not _fillers()

    def test_nested_prefetching_is_rejected(self, small_ring):
        ring = small_ring(0, block_size=16)
        with ring.prefetching(), pytest.raises(ConfigurationError, match="already running"):
            with ring.prefetching():
                pass
        assert not _fillers()

    def test_failed_filler_start_leaves_the_ring_usable(self, small_ring, monkeypatch):
        ring = small_ring(8, block_size=16)

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", refuse)
            with pytest.raises(RuntimeError, match="can't start"), ring.prefetching():
                pass
        reads: list[np.ndarray] = []

        def consume():
            reads.append(ring.draw(40, 1.0))  # fills synchronously, no waiting
            with ring.prefetching():
                reads.append(ring.draw(40, 1.0))

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        consumer.join(timeout=30)
        assert not consumer.is_alive(), "the consumer waited on a filler that never ran"
        assert np.array_equal(np.concatenate(reads), _inline(8, 80))

    def test_interrupted_wait_hands_each_block_back_once(self, small_ring):
        """A KeyboardInterrupt while waiting for a block must not corrupt the ring."""
        ring = small_ring(6, block_size=16, depth=2)
        gate = threading.Event()
        gate.set()
        ring._rng = _GatedGenerator(6, gate)
        first = ring.draw(16, 1.0)  # the one block read to its end
        consumer = threading.current_thread()
        real_wait = ring._cond.wait

        def interrupted_wait(*args, **kwargs):
            if threading.current_thread() is consumer:
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        gate.clear()  # hold the filler inside its first block
        with ring.prefetching():
            ring._cond.wait = interrupted_wait
            with pytest.raises(KeyboardInterrupt):
                ring.draw(1, 1.0)
            ring._cond.wait = real_wait
            gate.set()
            rest = ring.draw(64, 1.0)
        assert np.array_equal(np.concatenate([first, rest]), _inline(6, 80))


# --------------------------------------------------------------------- #
# zero allocation
# --------------------------------------------------------------------- #
class TestZeroAllocation:
    def test_marked_functions_pass_alloc001(self):
        paths = [Path(perturbation_module.__file__), Path(noise_module.__file__)]
        report = analyze_paths(paths, rules=[get_rule("ALLOC001")])
        assert list(report.findings) == []

    @pytest.mark.parametrize("prefetch", [False, True], ids=["sync", "thread"])
    def test_workspace_perturb_allocates_no_arrays(self, prefetch, small_ring):
        """Block refills inside the measured call allocate nothing array-sized."""
        big = load_dataset("smallworld", num_nodes=2000, seed=3)
        config = TrainingConfig(
            embedding_dim=32, batch_size=512, learning_rate=0.1,
            negative_samples=5, epochs=1,
        )
        trainer = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=config,
            privacy_config=PRIVACY, seed=0,
        )
        trainer._setup(big, np.random.default_rng(0))
        engine = trainer.engine
        engine.run(2)
        ws = StepWorkspace.for_training(engine.model, engine.sampler)
        strategy = trainer.perturbation
        strategy.noise = small_ring(1, block_size=4096)  # refills every call
        batch = engine.sampler.sample_batch_arrays(ws)

        def perturb():
            gradients = engine.objective.batch_gradients(
                engine.model.w_in, engine.model.w_out, batch, workspace=ws
            )
            strategy.perturb_batch(gradients, ws)

        with strategy.noise.prefetching() if prefetch else nullcontext():
            for _ in range(3):
                perturb()
            tracemalloc.start()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            perturb()
            peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.stop()
        # one [B*(1+k), r] float64 block would be 1.5 MiB at these shapes
        assert peak < 128 * 1024, peak


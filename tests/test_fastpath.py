"""Tests for the zero-allocation training step.

Covers the :class:`~repro.engine.StepWorkspace` machinery (in-place
gradients, compact perturbation, segment reduction) and its per-run
lifetime, the ``compute_dtype`` knob (float32 ↔ float64 parity at
tolerance, phase by phase and across every registered method, and the
float64-only private step), the alias
negative sampler, the ``rng.choice`` batch sampler, the per-phase
:class:`~repro.engine.StepProfiler`, the SGD dtype guard, and the
tracemalloc allocation pins.
"""

from __future__ import annotations

import gc
import multiprocessing
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ConfigurationError, PrivacyConfig, TrainingConfig
from repro.embedding import SGDOptimizer, SkipGramModel, get_perturbation
from repro.embedding.objectives import StructurePreferenceObjective
from repro.embedding.private_trainer import SEPrivGEmbTrainer
from repro.embedding.trainer import SEGEmbTrainer
from repro.engine import (
    DirectSparseUpdate,
    EngineHook,
    IterateAveragingHook,
    PerturbedUpdate,
    StepProfiler,
    StepWorkspace,
    resolve_compute_dtype,
)
from repro.engine.workspace import _SegmentScratch, scatter_axpy
from repro.exceptions import GraphError, TrainingError
from repro.graph import load_dataset
from repro.graph.sampling import (
    ProximityNegativeSampler,
    SubgraphSampler,
    UnigramNegativeSampler,
    generate_disjoint_subgraph_arrays,
)
from repro.models import Embedder, available_methods, get_method, load_artifact, save_artifact
from repro.proximity import DegreeProximity

TRAINING = TrainingConfig(
    embedding_dim=12, batch_size=24, learning_rate=0.1, negative_samples=4,
    epochs=25, seed=0,
)
PRIVACY = PrivacyConfig(
    epsilon=3.5, delta=1e-5, noise_multiplier=5.0, clipping_threshold=2.0
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("smallworld", num_nodes=80, seed=7)


def _setup(graph, *, dtype="float64", private=False, seed=0):
    """A trainer's engine stack, already set up."""
    if private:
        trainer = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=TRAINING,
            privacy_config=PRIVACY, seed=seed, compute_dtype=dtype,
        )
    else:
        trainer = SEGEmbTrainer(
            proximity=DegreeProximity(), config=TRAINING, seed=seed,
            compute_dtype=dtype,
        )
    trainer._setup(graph, np.random.default_rng(seed))
    return trainer


def _workspace(trainer):
    """The workspace a run of ``trainer``'s engine would allocate."""
    return StepWorkspace.for_training(trainer.model, trainer._sampler)


# --------------------------------------------------------------------- #
# workspace construction and validation
# --------------------------------------------------------------------- #
class TestStepWorkspace:
    def test_geometry_and_buffer_identity(self):
        ws = StepWorkspace(
            batch_size=8, num_negatives=3, embedding_dim=5, num_nodes=30,
            dtype="float32",
        )
        assert ws.batch.centers is ws.centers
        assert ws.batch.weights is ws.weights
        assert ws.gradients.context_errors is ws.errors
        assert ws.gradients.center_vectors is ws.center_vecs
        assert ws.contexts.shape == (8, 4)
        assert ws.context_vecs.shape == (8, 4, 5)
        assert ws.dtype == np.dtype(np.float32)
        assert ws.weights.dtype == np.dtype(np.float32)
        # the noise block takes the compute dtype: a private step is float64 only
        assert ws.context_scratch.noise.dtype == np.dtype(np.float32)

    @pytest.mark.parametrize(
        ("dtype", "budget_mib"), [("float64", 7.9), ("float32", 5.9)]
    )
    def test_workspace_size_is_pinned(self, dtype, budget_mib):
        # B=1024, k=5, r=32: one (slots, r) noise block per segment scratch,
        # in the compute dtype, and the W_out gradient stays in its rank-1
        # factors (6.44 MiB float64, 3.48 MiB float32); a second scratch
        # block per segment scratch would add 1.75 / 0.875 MiB
        tracemalloc.start()
        try:
            ws = StepWorkspace(
                batch_size=1024, num_negatives=5, embedding_dim=32,
                num_nodes=20000, dtype=dtype,
            )
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert size < budget_mib * 2**20, f"workspace holds {size / 2**20:.2f} MiB"
        for scratch in (ws.center_scratch, ws.context_scratch):
            assert scratch.noise.dtype == ws.dtype

    def test_rejects_bad_dtype_and_geometry(self):
        with pytest.raises(ConfigurationError, match="compute_dtype"):
            StepWorkspace(batch_size=4, num_negatives=2, embedding_dim=3,
                          num_nodes=10, dtype="float16")
        with pytest.raises(ConfigurationError, match="batch_size"):
            StepWorkspace(batch_size=0, num_negatives=2, embedding_dim=3, num_nodes=10)
        with pytest.raises(ConfigurationError, match="num_negatives"):
            StepWorkspace(batch_size=4, num_negatives=0, embedding_dim=3, num_nodes=10)

    def test_for_training_takes_model_and_sampler_geometry(self, graph):
        trainer = _setup(graph, dtype="float32")
        ws = _workspace(trainer)
        assert ws.batch_size == trainer._sampler.batch_size
        assert ws.num_negatives == TRAINING.negative_samples
        assert ws.embedding_dim == TRAINING.embedding_dim
        assert ws.num_nodes == graph.num_nodes
        assert ws.dtype == np.dtype(np.float32)

    def test_resolve_compute_dtype(self):
        assert resolve_compute_dtype("float32") == np.dtype(np.float32)
        assert resolve_compute_dtype(np.float64) == np.dtype(np.float64)
        with pytest.raises(ConfigurationError, match="float16"):
            resolve_compute_dtype("float16")
        with pytest.raises(ConfigurationError):
            resolve_compute_dtype("int64")
        with pytest.raises(ConfigurationError):
            # np.dtype(None) would silently mean float64 — must be rejected
            resolve_compute_dtype(None)


# --------------------------------------------------------------------- #
# segment reduction (the compact scatter core)
# --------------------------------------------------------------------- #
class TestSegmentScratch:
    @given(st.integers(0, 2**31 - 1), st.integers(2, 64), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_reduce_matches_unique_bincount(self, seed, slots, dim):
        rng = np.random.default_rng(seed)
        nodes = max(2, slots // 2 * 3)
        rows = rng.integers(0, nodes, size=slots)
        values = rng.standard_normal((slots, dim))
        scratch = _SegmentScratch(slots, dim, np.dtype(np.float64), nodes)
        unique = scratch.reduce(rows, values)
        expected_rows, inverse = np.unique(rows, return_inverse=True)
        expected_sums = np.zeros((expected_rows.size, dim))
        np.add.at(expected_sums, inverse, values)
        expected_counts = np.bincount(inverse, minlength=expected_rows.size)
        assert unique == expected_rows.size
        np.testing.assert_array_equal(scratch.unique_rows[:unique], expected_rows)
        np.testing.assert_allclose(scratch.sums[:unique], expected_sums, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(scratch.counts[:unique], expected_counts)

    def test_all_duplicates(self):
        scratch = _SegmentScratch(6, 2, np.dtype(np.float64), 1)
        unique = scratch.reduce(np.zeros(6, dtype=np.int64), np.ones((6, 2)))
        assert unique == 1
        np.testing.assert_allclose(scratch.sums[0], [6.0, 6.0])
        assert scratch.counts[0] == 6.0

    @staticmethod
    def _add_at_reference(rows, slot_values):
        """Each segment seeded with its first slot, duplicates via ``np.add.at``."""
        unique_rows, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        sums = slot_values[first].copy()
        duplicates = np.setdiff1d(np.arange(rows.size), first)
        np.add.at(sums, inverse[duplicates], slot_values[duplicates])
        return unique_rows, sums, np.bincount(inverse)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("factored", [False, True], ids=["explicit", "rank1"])
    @pytest.mark.parametrize("multiplicity", [1, 2, 3, 5, 7, 11, 24])
    def test_segment_sums_equal_add_at_bit_for_bit(self, multiplicity, factored, dtype):
        # 24 slots: from all-distinct rows up to every slot on one row
        slots, group, dim = 24, 4, 5
        rng = np.random.default_rng(multiplicity)
        nodes = rng.permutation(50)[: -(-slots // multiplicity)]
        rows = nodes[np.arange(slots) // multiplicity]
        rng.shuffle(rows)
        if factored:
            # W_out: slot s carries scale[s] * values[s // group]
            values = rng.standard_normal((slots // group, dim)).astype(dtype)
            scale = rng.standard_normal(slots).astype(dtype)
            slot_values = scale[:, None] * values[np.arange(slots) // group]
        else:
            values = slot_values = rng.standard_normal((slots, dim)).astype(dtype)
            scale = None
        scratch = _SegmentScratch(slots, dim, np.dtype(dtype), 50)
        unique = scratch.reduce(rows, values, scale)
        expected_rows, expected_sums, expected_counts = self._add_at_reference(
            rows, slot_values
        )
        assert unique == expected_rows.size == -(-slots // multiplicity)
        np.testing.assert_array_equal(scratch.unique_rows[:unique], expected_rows)
        assert scratch.sums[:unique].tobytes() == expected_sums.tobytes()
        np.testing.assert_array_equal(scratch.counts[:unique], expected_counts)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("factored", [False, True], ids=["explicit", "rank1"])
    def test_signed_zeros_and_non_finite_slots_equal_add_at_bit_for_bit(
        self, factored, dtype
    ):
        # The sums start from -0.0, the additive identity: a segment whose
        # slots are all -0.0 must stay -0.0 (a +0.0 start makes it +0.0),
        # and inf / nan must come out as the first-slot + np.add.at sums do
        slots, group, dim = 24, 4, 6
        rng = np.random.default_rng(5)
        special = np.array([-0.0, -0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, -2.0], dtype=dtype)
        # segments of 1, 1, 1, 2, 2, 3, 5 and 9 slots
        rows = rng.permutation(np.repeat(np.arange(8) * 3, [1, 1, 1, 2, 2, 3, 5, 9]))
        if factored:
            values = rng.choice(special, size=(slots // group, dim))
            scale = rng.choice(special, size=slots)
            with np.errstate(invalid="ignore"):
                slot_values = scale[:, None] * values[np.arange(slots) // group]
        else:
            values = slot_values = rng.choice(special, size=(slots, dim))
            scale = None
        scratch = _SegmentScratch(slots, dim, np.dtype(dtype), 24)
        with np.errstate(invalid="ignore"):
            unique = scratch.reduce(rows, values, scale)
            expected_rows, expected_sums, expected_counts = self._add_at_reference(
                rows, slot_values
            )
        # the data must hold every case the test is about
        assert np.any((expected_sums == 0) & np.signbit(expected_sums))
        assert np.any((expected_sums == 0) & ~np.signbit(expected_sums))
        assert np.isnan(expected_sums).any() and np.isinf(expected_sums).any()
        assert unique == expected_rows.size == 8
        np.testing.assert_array_equal(scratch.unique_rows[:unique], expected_rows)
        assert scratch.sums[:unique].tobytes() == expected_sums.tobytes()
        np.testing.assert_array_equal(scratch.counts[:unique], expected_counts)

    def test_rejects_values_the_kernel_cannot_read_in_place(self):
        scratch = _SegmentScratch(6, 4, np.dtype(np.float64), 6)
        rows = np.arange(6)
        for values in (
            np.ones((4, 4)),  # 4 rows do not divide 6 slots
            np.ones((6, 5)),  # wrong width
            np.ones((6, 4), dtype=np.float32),  # wrong dtype
            np.ones((6, 8))[:, ::2],  # strided
        ):
            with pytest.raises(TrainingError, match="C-contiguous"):
                scratch.reduce(rows, values)


# --------------------------------------------------------------------- #
# scatter-axpy: the descent and the iterate average write through it
# --------------------------------------------------------------------- #
class TestScatterAxpy:
    NODES, DIM = 40, 6

    def _case(self, dtype, count, seed=0):
        """A matrix, sorted unique rows, and steps holding ±0, ±inf and nan."""
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((self.NODES, self.DIM)).astype(dtype)
        rows = np.sort(rng.choice(self.NODES, size=count, replace=False)).astype(np.int64)
        step = rng.standard_normal((count, self.DIM)).astype(dtype)
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan], dtype=dtype)
        step.flat[: special.size] = special
        matrix[rows[0], : special.size] = special[::-1]
        return matrix, rows, step

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("count", [1, 7, 39])
    def test_descent_equals_take_subtract_put_bit_for_bit(self, dtype, count):
        matrix, rows, step = self._case(dtype, count)
        expected = matrix.copy()
        with np.errstate(invalid="ignore"):
            expected[rows] = expected[rows] - step
            scatter_axpy(
                matrix, rows, step, np.full(count, -1.0, dtype=dtype), np.arange(count + 1)
            )
        assert matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("weight", [1, 3, 37, 999])
    def test_weighted_add_equals_multiply_then_add_bit_for_bit(self, weight):
        correction, rows, delta = self._case("float64", 17, seed=weight)
        expected = correction.copy()
        with np.errstate(invalid="ignore"):
            expected[rows] = expected[rows] + delta * weight
            scatter_axpy(correction, rows, delta, np.full(17, float(weight)), np.arange(18))
        assert correction.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("count", [5, NODES], ids=["touched", "all_rows"])
    def test_optimizer_descent_reports_its_step(self, dtype, count):
        """The touched rows scatter, all ``|V|`` rows descend densely: same bits."""
        matrix, rows, gradients = self._case(dtype, count, seed=2)
        gradients[~np.isfinite(gradients)] = 0.5
        expected = matrix.copy()
        step_expected = gradients * np.asarray(0.3, dtype=dtype)
        expected[rows] = expected[rows] - step_expected
        step = SGDOptimizer(0.3).descend_unique_rows(matrix, rows, gradients)
        assert matrix.tobytes() == expected.tobytes()
        assert step.tobytes() == step_expected.tobytes()

    @pytest.mark.parametrize(
        "target",
        [
            lambda m: np.asfortranarray(m),
            lambda m: np.ascontiguousarray(np.hstack([m, m]))[:, : m.shape[1]],
            lambda m: np.ascontiguousarray(np.vstack([m, m]))[::2],
            lambda m: m.astype(np.float32),
            lambda m: np.ascontiguousarray(m[:, :-1]),
        ],
        ids=["fortran", "column_slice", "row_stride", "dtype", "width"],
    )
    def test_rejects_targets_the_kernel_cannot_write_in_place(self, target):
        matrix, rows, step = self._case("float64", 5)
        step[~np.isfinite(step)] = 1.0
        matrix = target(matrix)
        before = matrix.copy()
        with pytest.raises(TrainingError, match="C-contiguous target"):
            scatter_axpy(matrix, rows, step, np.full(5, -1.0), np.arange(6))
        assert matrix.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad", [-1, NODES], ids=["negative", "num_nodes"])
    def test_rejects_rows_outside_the_matrix(self, bad):
        matrix, _, step = self._case("float64", 3)
        rows = np.array([0, 5, bad]) if bad > 0 else np.array([bad, 5, 9])
        before = matrix.copy()
        with pytest.raises(TrainingError, match="must lie in"):
            scatter_axpy(matrix, rows, step, np.full(3, -1.0), np.arange(4))
        assert matrix.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "rows", [[5, 0], [0, -1], [1, 7, 0]], ids=["unsorted_high", "unsorted_negative", "middle"]
    )
    def test_rejects_an_out_of_range_row_anywhere(self, rows):
        """Every row is bounded, not just the ends of a sorted list."""
        matrix = np.zeros((3, self.DIM))
        step = np.ones((len(rows), self.DIM))
        with pytest.raises(TrainingError, match="must lie in"):
            scatter_axpy(
                matrix, np.array(rows), step, np.full(len(rows), -1.0), np.arange(len(rows) + 1)
            )
        with pytest.raises(TrainingError, match="must lie in"):
            SGDOptimizer(0.3).descend_unique_rows(matrix, np.array(rows), step)
        assert not matrix.any()

    @pytest.mark.parametrize("rows", [[0, 2, 1, 3], [3, 2, 1, 0], [2, 0]])
    def test_optimizer_descends_unsorted_unique_rows_onto_their_own_rows(self, rows):
        """A permutation of all ``|V|`` rows is not taken for ``0, 1, …, |V|−1``."""
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((4, self.DIM))
        gradients = rng.standard_normal((len(rows), self.DIM))
        expected = matrix.copy()
        expected[rows] = expected[rows] - gradients * 0.3
        SGDOptimizer(0.3).descend_unique_rows(matrix, np.array(rows), gradients)
        assert matrix.tobytes() == expected.tobytes()

    def test_rejects_rows_factors_or_indptr_shorter_than_the_step(self):
        matrix, rows, step = self._case("float64", 5)
        before = matrix.copy()
        for args in (
            (rows[:4], np.full(5, -1.0), np.arange(6)),
            (rows, np.full(4, -1.0), np.arange(6)),
            (rows, np.full(5, -1.0), np.arange(5)),
        ):
            with pytest.raises(TrainingError, match="one row, one factor"):
                scatter_axpy(matrix, args[0], step, args[1], args[2])
        assert matrix.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_a_fortran_ordered_model_raises_instead_of_losing_the_step(self, graph, dtype):
        trainer = _setup(graph, dtype=dtype)
        engine = trainer.engine
        model = engine.model
        # W_in descends first: its B touched rows always take the scatter
        model.w_in = np.asfortranarray(model.w_in)
        engine.workspace = engine.update_rule.workspace = _workspace(trainer)
        batch = engine.sampler.sample_batch_arrays(engine.workspace)
        gradients = engine.objective.batch_gradients(
            model.w_in, model.w_out, batch, workspace=engine.workspace
        )
        w_in, w_out = model.w_in.copy(), model.w_out.copy()
        with pytest.raises(TrainingError, match="C-contiguous target"):
            engine.update_rule.apply(model, engine.optimizer, batch, gradients)
        assert np.array_equal(model.w_in, w_in)
        assert np.array_equal(model.w_out, w_out)

    def test_the_averaging_hook_rejects_a_strided_correction(self, graph):
        trainer = _setup(graph, private=True)
        engine = trainer.engine
        (hook,) = (h for h in engine.hooks if isinstance(h, IterateAveragingHook))

        class _Strided(EngineHook):
            def after_step(self, engine, epoch, loss):
                # swap in a view that ravel() would copy: the update would vanish
                wide = np.zeros((hook.correction_w_out.shape[0], 2 * TRAINING.embedding_dim))
                hook.correction_w_out = wide[:, : TRAINING.embedding_dim]

        engine.hooks = (_Strided(), *engine.hooks)
        with pytest.raises(TrainingError, match="C-contiguous target"):
            engine.run(3)


# --------------------------------------------------------------------- #
# float32 workspace phases against the float64 default, same batches
# --------------------------------------------------------------------- #
def _gradients_for(trainer, batch):
    ws = _workspace(trainer)
    model = trainer.model
    return trainer.objective.batch_gradients(model.w_in, model.w_out, batch, workspace=ws), ws


class TestWorkspaceEquivalence:
    def test_gradients_match_default_path(self, graph):
        """float32 gradients of one sampled batch shadow the float64 default."""
        default = _setup(graph)
        fast = _setup(graph, dtype="float32")
        batch64 = default._sampler.sample_batch_arrays(_workspace(default))
        batch32 = fast._sampler.sample_batch_arrays(_workspace(fast))
        np.testing.assert_array_equal(batch32.centers, batch64.centers)
        np.testing.assert_array_equal(batch32.contexts, batch64.contexts)
        grads64, _ = _gradients_for(default, batch64)
        grads32, _ = _gradients_for(fast, batch32)
        assert grads32.center_gradients.dtype == np.dtype(np.float32)
        for name in ("center_gradients", "context_errors", "center_vectors", "losses"):
            np.testing.assert_allclose(
                getattr(grads32, name), getattr(grads64, name), rtol=1e-4, atol=1e-6
            )
        np.testing.assert_allclose(
            grads32.context_errors[:, :, None] * grads32.center_vectors[:, None, :],
            grads64.context_errors[:, :, None] * grads64.center_vectors[:, None, :],
            rtol=1e-4, atol=1e-6,
        )

    def test_workspace_requires_bound_weights(self, graph):
        trainer = _setup(graph)
        ws = _workspace(trainer)
        model = trainer.model
        pool = trainer._subgraph_pool
        weightless = pool.take(np.arange(ws.batch_size)).with_weights(
            np.ones(ws.batch_size)
        )
        object.__setattr__(weightless, "weights", None)
        with pytest.raises(TrainingError, match="pre-bound"):
            trainer.objective.batch_gradients(
                model.w_in, model.w_out, weightless, workspace=ws
            )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_engine_step_matches_default_given_same_batches(self, seed):
        """One float32 step shadows one float64 step fed the identical batch."""
        graph = load_dataset("smallworld", num_nodes=50, seed=3)
        proximity = DegreeProximity().compute(graph)
        objective = StructurePreferenceObjective(proximity)
        sampler_rng = np.random.default_rng(seed)
        negative = UnigramNegativeSampler(graph, seed=sampler_rng)
        pool = generate_disjoint_subgraph_arrays(graph, negative, 3)
        pool = pool.with_weights(objective.edge_weights(pool.centers, pool.positives))
        indices = np.random.default_rng(seed + 1).choice(len(pool), size=16, replace=False)

        models, losses = {}, {}
        for dtype in ("float64", "float32"):
            model = SkipGramModel(graph.num_nodes, 6, seed=seed, dtype=dtype)
            ws = StepWorkspace(batch_size=16, num_negatives=3, embedding_dim=6,
                               num_nodes=graph.num_nodes, dtype=dtype)
            batch = pool.with_weights(pool.weights.astype(dtype)).take(indices, out=ws.batch)
            rule = DirectSparseUpdate()
            rule.workspace = ws
            gradients = objective.batch_gradients(model.w_in, model.w_out, batch, workspace=ws)
            losses[dtype] = gradients.mean_loss
            rule.apply(model, SGDOptimizer(0.1), batch, gradients)
            models[dtype] = model

        assert losses["float32"] == pytest.approx(losses["float64"], rel=1e-5)
        for name in ("w_in", "w_out"):
            np.testing.assert_allclose(
                getattr(models["float32"], name), getattr(models["float64"], name),
                rtol=1e-5, atol=1e-6,
            )


# --------------------------------------------------------------------- #
# float32 <-> float64 parity across every registered method
# --------------------------------------------------------------------- #
def _small_parity_graph():
    return load_dataset("smallworld", num_nodes=70, seed=5)


class TestComputeDtypeParity:
    @pytest.mark.parametrize("method", available_methods())
    def test_float32_matches_float64_at_tolerance(self, method):
        """The satellite contract: float32 runs shadow float64 at rtol<=1e-4.

        SE-GEmb runs both dtypes through the same step (index draws are
        dtype-independent, so the two runs see identical batches);
        SE-PrivGEmb and the one-shot baselines publish a float32 cast of
        their float64 release.
        """
        graph = _small_parity_graph()
        spec = get_method(method)
        training = TrainingConfig(
            embedding_dim=10, batch_size=20, learning_rate=0.1,
            negative_samples=3, epochs=12, seed=0,
        )
        runs = {}
        for dtype in ("float64", "float32"):
            model = spec.build(
                training=training, privacy=PRIVACY, proximity_cache="off",
                seed=0, compute_dtype=dtype,
            ).fit(graph)
            runs[dtype] = model
        emb64 = runs["float64"].embeddings_
        emb32 = runs["float32"].embeddings_
        assert emb32.dtype == np.dtype(np.float32)
        assert emb64.dtype == np.dtype(np.float64)
        scale = np.max(np.abs(emb64)) or 1.0
        np.testing.assert_allclose(emb32, emb64, rtol=1e-4, atol=1e-4 * scale)
        losses64 = np.asarray(runs["float64"].result_.losses)
        losses32 = np.asarray(runs["float32"].result_.losses)
        np.testing.assert_allclose(losses32, losses64, rtol=1e-4, atol=1e-6)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_property_fast32_shadows_fast64_nonprivate(self, seed):
        graph = _small_parity_graph()
        runs = {}
        for dtype in ("float64", "float32"):
            runs[dtype] = SEGEmbTrainer(
                proximity=DegreeProximity(), config=TRAINING, seed=seed,
                compute_dtype=dtype,
            ).fit(graph)
        emb64 = runs["float64"].embeddings_
        emb32 = runs["float32"].embeddings_
        scale = np.max(np.abs(emb64)) or 1.0
        np.testing.assert_allclose(emb32, emb64, rtol=1e-4, atol=1e-4 * scale)
        np.testing.assert_allclose(
            np.asarray(runs["float32"].result_.losses),
            np.asarray(runs["float64"].result_.losses),
            rtol=1e-4, atol=1e-6,
        )

    def test_artifact_roundtrip_replays_fastpath_and_dtype(self, tmp_path, graph):
        """Artifacts recording the retired ``fast_path`` option still load."""
        model = get_method("se_gemb_deg").build(
            training=TRAINING, seed=0, proximity_cache="off", compute_dtype="float32",
        ).fit(graph)
        path = model.save(tmp_path / "fast.npz")
        arrays, metadata = load_artifact(path)
        assert "fast_path" not in metadata["build_options"]
        # what an artifact saved with fast_path=True looked like
        metadata["build_options"]["fast_path"] = True
        save_artifact(path, arrays, metadata)
        reloaded = Embedder.load(path)
        assert not hasattr(reloaded, "fast_path")
        assert reloaded.compute_dtype == np.dtype(np.float32)
        np.testing.assert_array_equal(reloaded.embeddings_, model.embeddings_)


# --------------------------------------------------------------------- #
# the workspace lives for one run
# --------------------------------------------------------------------- #
def _reachable_workspaces(root):
    """Every StepWorkspace reachable from ``root`` through object references.

    Classes, modules and functions are not followed: through them (a
    function's globals) everything in the process would be reachable.
    """
    skipped = (type, types.ModuleType, types.FunctionType, np.ndarray)
    found, seen, pending = [], set(), [root]
    while pending:
        item = pending.pop()
        if id(item) in seen or isinstance(item, skipped):
            continue
        seen.add(id(item))
        if isinstance(item, StepWorkspace):
            found.append(item)
        pending.extend(gc.get_referents(item))
    return found


class TestWorkspaceLifetime:
    @pytest.mark.parametrize("private", [False, True], ids=["direct", "perturbed"])
    def test_fit_leaves_no_workspace_reachable(self, graph, private):
        if private:
            trainer = SEPrivGEmbTrainer(
                proximity=DegreeProximity(), training_config=TRAINING,
                privacy_config=PRIVACY, seed=0,
            )
        else:
            trainer = SEGEmbTrainer(proximity=DegreeProximity(), config=TRAINING, seed=0)
        trainer.fit(graph)
        assert _reachable_workspaces(trainer) == []


class TestWorkspaceReuse:
    """Refitting an estimator: every run builds its own workspace, so nothing
    from an earlier fit survives into, or leaks out of, the next one."""

    def test_refit_reuses_workspace_without_leaking(self, graph):
        trainer = SEGEmbTrainer(proximity=DegreeProximity(), config=TRAINING, seed=0)
        first = trainer.fit(graph).embeddings_.copy()
        second = trainer.fit(graph).embeddings_
        assert _reachable_workspaces(trainer) == []
        fresh = SEGEmbTrainer(
            proximity=DegreeProximity(), config=TRAINING, seed=0
        ).fit(graph).embeddings_
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(second, fresh)

    def test_refit_on_other_graph_rebuilds_and_stays_clean(self):
        graph_a = load_dataset("smallworld", num_nodes=60, seed=1)
        graph_b = load_dataset("smallworld", num_nodes=90, seed=2)
        trainer = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=TRAINING,
            privacy_config=PRIVACY, seed=0,
        )
        first = trainer.fit(graph_a).embeddings_.copy()
        trainer.fit(graph_b)
        again = trainer.fit(graph_a).embeddings_
        assert _reachable_workspaces(trainer) == []
        fresh = SEPrivGEmbTrainer(
            proximity=DegreeProximity(), training_config=TRAINING,
            privacy_config=PRIVACY, seed=0,
        ).fit(graph_a).embeddings_
        np.testing.assert_array_equal(first, fresh)
        np.testing.assert_array_equal(again, fresh)


# --------------------------------------------------------------------- #
# steady-state steps do not allocate array-sized blocks (tracemalloc)
# --------------------------------------------------------------------- #
def _phase_peak(callable_, warmups=3):
    """Peak traced allocation of one call, after warm-up calls."""
    for _ in range(warmups):
        callable_()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    callable_()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak - before


class TestZeroAllocation:
    # Python/numpy object overhead per phase (view structs, the loss float,
    # numpy-internal cast buffers) is a few tens of KB; an array-sized
    # allocation at these shapes is >= 192 KB (one [B, 1+k, r] float32
    # block).
    PHASE_BUDGET = 128 * 1024

    @pytest.fixture(scope="class")
    def alloc_graph(self):
        return load_dataset("smallworld", num_nodes=2000, seed=3)

    def _engine(self, alloc_graph, private):
        """A float64 private engine, or a float32 non-private one."""
        config = TrainingConfig(
            embedding_dim=32, batch_size=512, learning_rate=0.1,
            negative_samples=5, epochs=1, seed=0,
        )
        if private:
            trainer = SEPrivGEmbTrainer(
                proximity=DegreeProximity(), training_config=config,
                privacy_config=PRIVACY, seed=0,
            )
        else:
            trainer = SEGEmbTrainer(
                proximity=DegreeProximity(), config=config, seed=0,
                compute_dtype="float32",
            )
        trainer._setup(alloc_graph, np.random.default_rng(0))
        engine = trainer.engine
        engine.run(3)  # steady state: caches warm, cast pools built
        # a run drops its workspace; attach one to step outside run()
        engine.workspace = engine.update_rule.workspace = _workspace(trainer)
        return trainer, engine

    @pytest.mark.parametrize("private", [False, True], ids=["direct", "perturbed"])
    def test_gradient_perturb_descend_phases_allocate_no_arrays(
        self, alloc_graph, private
    ):
        trainer, engine = self._engine(alloc_graph, private)
        ws = engine.workspace
        model, optimizer = engine.model, engine.optimizer
        batch = engine.sampler.sample_batch_arrays(ws)

        gradient_peak = _phase_peak(
            lambda: engine.objective.batch_gradients(
                model.w_in, model.w_out, batch, workspace=ws
            )
        )
        assert gradient_peak < self.PHASE_BUDGET, f"gradients allocate {gradient_peak}"

        gradients = engine.objective.batch_gradients(
            model.w_in, model.w_out, batch, workspace=ws
        )
        update_peak = _phase_peak(
            lambda: engine.update_rule.apply(model, optimizer, batch, gradients)
        )
        assert update_peak < self.PHASE_BUDGET, f"update allocates {update_peak}"

    def test_full_step_stays_below_budget(self, alloc_graph):
        _, engine = self._engine(alloc_graph, private=True)
        peak = _phase_peak(lambda: engine.step())
        # one [B, 1+k, r] float64 block would already be 768 KiB
        assert peak < 256 * 1024, peak

    def test_iterate_averaging_step_allocates_no_arrays(self, alloc_graph):
        _, engine = self._engine(alloc_graph, private=True)
        (averager,) = (h for h in engine.hooks if isinstance(h, IterateAveragingHook))
        averager.on_train_start(engine)  # the run above released its buffers

        def step_and_average():
            engine.step()
            averager.after_step(engine, 0, 0.0)

        # warm-up steps make the weight nonzero and the weight vector exist
        full_peak = _phase_peak(step_and_average)
        engine.step()
        averaging_peak = _phase_peak(lambda: averager.after_step(engine, 0, 0.0), warmups=0)
        assert averaging_peak < self.PHASE_BUDGET, f"averaging allocates {averaging_peak}"
        assert full_peak < 256 * 1024, full_peak


FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="hogwild workers require the fork start method",
)


def _traced_fit(trainer, graph, proximity):
    """Fit under tracemalloc; ``(retained, peak)`` as multiples of the published bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trainer.fit(graph, proximity=proximity)
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    published = trainer.embeddings_.nbytes + trainer.context_embeddings_.nbytes
    return retained / published, peak / published


class TestFittedStateMemory:
    """A fitted estimator holds what it publishes, not its training state.

    At 20k nodes x 64 dims in float64 the published pair is 19.5 MiB.  A
    fit that keeps its engine, model and noise ring retains 2.19x (SE-GEmb)
    and 2.60x (private, final iterate or 2-worker hogwild) of that;
    releasing them leaves 1.00x.  An averaged private fit finishes its
    average in place and publishes its two float64 corrections themselves:
    it peaks at 2.76x, against 2.60x for the final-iterate fit.
    """

    RETAINED = 1.25
    AVERAGED_PEAK = 3.0
    CONFIG = TrainingConfig(
        embedding_dim=64, batch_size=256, negative_samples=5, epochs=3, seed=0
    )

    @pytest.fixture(scope="class")
    def big_graph(self):
        graph = load_dataset("smallworld", num_nodes=20_000, seed=3)
        proximity = DegreeProximity().compute(graph)
        # build the graph's lazy caches outside the measured fits
        SEGEmbTrainer(DegreeProximity(), config=self.CONFIG, seed=0).fit(
            graph, proximity=proximity
        )
        return graph, proximity

    def _private(self, **kwargs):
        return SEPrivGEmbTrainer(
            DegreeProximity(), training_config=self.CONFIG, privacy_config=PRIVACY,
            seed=0, **kwargs,
        )

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda test: SEGEmbTrainer(DegreeProximity(), config=test.CONFIG, seed=0),
                id="se_gemb",
            ),
            pytest.param(lambda test: test._private(), id="se_privgemb-averaged"),
            pytest.param(
                lambda test: test._private(iterate_averaging=False), id="se_privgemb-final"
            ),
            pytest.param(
                lambda test: test._private(workers=2), id="se_privgemb-hogwild",
                marks=FORK_ONLY,
            ),
        ],
    )
    def test_fit_retains_only_the_published_matrices(self, big_graph, build):
        trainer = build(self)
        retained, _ = _traced_fit(trainer, *big_graph)
        assert retained <= self.RETAINED, f"a fitted trainer retains {retained:.2f}x"
        assert trainer.engine is None and trainer.model is None
        assert trainer.sampling_rate > 0  # the recorded γ outlives the fit

    def test_averaged_fit_peak_has_no_discarded_snapshot(self, big_graph):
        _, peak = _traced_fit(self._private(), *big_graph)
        assert peak < self.AVERAGED_PEAK, f"an averaged private fit peaks at {peak:.2f}x"


# --------------------------------------------------------------------- #
# alias-method negative sampling
# --------------------------------------------------------------------- #
class TestAliasSampler:
    def test_alias_table_preserves_distribution(self):
        graph = load_dataset("smallworld", num_nodes=200, seed=0)
        sampler = UnigramNegativeSampler(graph, seed=0)
        # marginal check of the raw candidate draw (before rejection)
        draws = sampler._draw_candidates(200_000)
        observed = np.bincount(draws, minlength=graph.num_nodes) / draws.size
        np.testing.assert_allclose(observed, sampler.probabilities, atol=5e-3)

    def test_alias_draws_respect_rejection_contract(self, graph):
        sampler = ProximityNegativeSampler.from_proximity(
            graph, DegreeProximity().compute(graph), seed=3
        )
        centers = np.arange(graph.num_nodes, dtype=np.int64)
        negatives = sampler.sample_negatives_bulk(centers, 4)
        assert negatives.shape == (graph.num_nodes, 4)
        for center in range(graph.num_nodes):
            for negative in negatives[center]:
                assert not graph.has_edge(center, int(negative))
                assert int(negative) != center

    def test_alias_deterministic_per_seed(self, graph):
        a = UnigramNegativeSampler(graph, seed=11)
        b = UnigramNegativeSampler(graph, seed=11)
        centers = np.arange(20, dtype=np.int64)
        np.testing.assert_array_equal(
            a.sample_negatives_bulk(centers, 3), b.sample_negatives_bulk(centers, 3)
        )

    def test_fallback_complement_still_works_with_alias(self):
        # near-complete graph: rejection fails, the masked complement kicks in
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)
                 if not (u == 0 and v == 5)]
        from repro import Graph

        graph = Graph(6, edges)
        sampler = UnigramNegativeSampler(graph, seed=0)
        negatives = sampler.sample_negatives_bulk(np.array([0]), 5)[0]
        assert set(negatives.tolist()) == {5}
        with pytest.raises(GraphError, match="every other node"):
            sampler.sample_negatives_bulk(np.array([1]), 2)


# --------------------------------------------------------------------- #
# batch index sampling
# --------------------------------------------------------------------- #
class TestBatchIndexSampler:
    def _pool(self, graph):
        proximity = DegreeProximity().compute(graph)
        objective = StructurePreferenceObjective(proximity)
        negative = UnigramNegativeSampler(graph, seed=0)
        pool = generate_disjoint_subgraph_arrays(graph, negative, 3)
        return pool.with_weights(objective.edge_weights(pool.centers, pool.positives))

    def test_without_replacement_and_in_range(self, graph):
        pool = self._pool(graph)
        sampler = SubgraphSampler(pool, 32, seed=0)
        for _ in range(50):
            indices = sampler.sample_indices()
            assert indices.shape == (32,)
            assert len(np.unique(indices)) == 32
            assert indices.min() >= 0 and indices.max() < len(pool)

    def test_generator_state_is_the_whole_sampler_state(self, graph):
        """Restoring bit_generator.state replays the index stream exactly."""
        pool = self._pool(graph)
        rng = np.random.default_rng(5)
        sampler = SubgraphSampler(pool, 16, seed=rng)
        sampler.sample_indices()
        state = rng.bit_generator.state
        expected = [sampler.sample_indices() for _ in range(3)]
        resumed_rng = np.random.default_rng(0)
        resumed_rng.bit_generator.state = state
        resumed = SubgraphSampler(pool, 16, seed=resumed_rng)
        for want in expected:
            np.testing.assert_array_equal(resumed.sample_indices(), want)

    def test_workspace_take_fills_buffers_in_place(self, graph):
        pool = self._pool(graph)
        sampler = SubgraphSampler(pool, 16, seed=0)
        ws = StepWorkspace(batch_size=16, num_negatives=pool.num_negatives,
                           embedding_dim=4, num_nodes=graph.num_nodes,
                           dtype="float32")
        batch = sampler.sample_batch_arrays(ws)
        assert batch is ws.batch
        assert batch.weights.dtype == np.dtype(np.float32)
        # the float32 weights mirror the float64 pool values for those rows
        rows = SubgraphSampler(pool, 16, seed=0).sample_indices()
        np.testing.assert_allclose(
            batch.weights, pool.weights[rows].astype(np.float32), rtol=0, atol=0
        )


# --------------------------------------------------------------------- #
# SGD dtype guard (satellite)
# --------------------------------------------------------------------- #
class TestOptimizerDtypeGuard:
    def test_descend_rejects_float_mismatch_naming_both(self):
        optimizer = SGDOptimizer(0.1)
        params = np.zeros((3, 2), dtype=np.float32)
        with pytest.raises(ConfigurationError, match="float64.*float32"):
            optimizer.descend_unique_rows(
                params, np.arange(3), np.ones((3, 2), dtype=np.float64)
            )

    def test_descend_rows_and_unique_rows_reject_mismatch(self):
        optimizer = SGDOptimizer(0.1)
        params64 = np.zeros((5, 2))
        rows = np.array([0, 1])
        with pytest.raises(ConfigurationError, match="float32.*float64"):
            optimizer.descend_unique_rows(
                params64, rows, np.ones((2, 2), dtype=np.float32)
            )

    def test_integer_gradients_still_cast_losslessly(self):
        optimizer = SGDOptimizer(0.5)
        params = np.zeros((2, 2))
        optimizer.descend_unique_rows(params, np.arange(2), np.array([[2, 0], [0, 2]]))
        np.testing.assert_allclose(params, [[-1.0, 0.0], [0.0, -1.0]])

    def test_scratch_descents_match_plain(self):
        optimizer = SGDOptimizer(0.2)
        params_a = np.arange(12, dtype=np.float64).reshape(6, 2)
        params_b = params_a.copy()
        unique_rows = np.array([1, 4])
        unique_grads = np.random.default_rng(1).standard_normal((2, 2))
        optimizer.descend_unique_rows(params_a, unique_rows, unique_grads)
        optimizer.descend_unique_rows(
            params_b, unique_rows, unique_grads.copy(), scratch=np.empty((2, 2))
        )
        np.testing.assert_allclose(params_a, params_b, rtol=1e-15, atol=1e-15)


# --------------------------------------------------------------------- #
# the step profiler
# --------------------------------------------------------------------- #
class TestStepProfiler:
    def test_profile_surfaces_phases_on_engine_result(self, graph):
        trainer = _setup(graph)
        profiler = StepProfiler()
        engine = trainer.engine
        engine.hooks = (*engine.hooks, profiler)
        result = engine.run(8)
        profile = result.profile
        assert profile is not None and profile.steps == 8
        assert set(profile.phase_seconds) == {"sample", "gradients", "descend"}
        assert all(seconds >= 0 for seconds in profile.phase_seconds.values())
        assert profile.total_seconds > 0
        payload = profile.to_dict()
        assert payload["steps"] == 8
        assert set(payload["phase_mean_seconds"]) == set(profile.phase_seconds)

    def test_private_run_records_perturb_phase(self, graph):
        trainer = _setup(graph, private=True)
        profiler = StepProfiler()
        engine = trainer.engine
        engine.hooks = (*engine.hooks, profiler)
        result = engine.run(5)
        # a private fit averages its iterates by default
        assert set(result.profile.phase_seconds) == {
            "sample", "gradients", "perturb", "descend", "averaging",
        }

    def test_profiler_detaches_after_run(self, graph):
        trainer = _setup(graph)
        profiler = StepProfiler()
        engine = trainer.engine
        engine.hooks = (*engine.hooks, profiler)
        engine.run(3)
        assert engine.profiler is None
        assert engine.update_rule.profiler is None
        # a second run re-profiles from scratch
        second = engine.run(4)
        assert second.profile.steps == 4

    def test_default_path_profiles_too(self, graph):
        trainer = SEGEmbTrainer(proximity=DegreeProximity(), config=TRAINING, seed=0)
        trainer._setup(graph, np.random.default_rng(0))
        profiler = StepProfiler()
        engine = trainer.engine
        engine.hooks = (*engine.hooks, profiler)
        result = engine.run(4)
        assert result.profile.steps == 4
        assert "descend" in result.profile.phase_seconds


# --------------------------------------------------------------------- #
# engine-level wiring
# --------------------------------------------------------------------- #
class _PerturbedRows(EngineHook):
    """Record the workspace's perturbed-gradient holder after every step."""

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.batch_sizes: list[int] = []

    def after_step(self, engine, epoch, loss) -> None:
        result = engine.workspace.perturb_result
        self.rows.append(len(result.w_in_rows))
        self.batch_sizes.append(result.batch_size)


class TestPrivateStepIsFloat64:
    """SE-PrivGEmb trains in float64; ``compute_dtype`` is its published dtype."""

    @pytest.mark.parametrize(
        ("perturbation", "averaging"),
        [("nonzero", True), ("nonzero", False), ("naive", True)],
        ids=["nonzero-averaged", "nonzero-final", "naive-averaged"],
    )
    def test_float32_fit_is_the_float64_fit_rounded_once(
        self, graph, perturbation, averaging
    ):
        runs = {
            dtype: SEPrivGEmbTrainer(
                proximity=DegreeProximity(), training_config=TRAINING,
                privacy_config=PRIVACY, perturbation=perturbation,
                iterate_averaging=averaging, seed=0, compute_dtype=dtype,
            ).fit(graph)
            for dtype in ("float64", "float32")
        }
        default, fast = runs["float64"], runs["float32"]
        for name in ("embeddings_", "context_embeddings_"):
            published = getattr(fast, name)
            assert published.dtype == np.dtype(np.float32)
            rounded = getattr(default, name).astype(np.float32)
            assert published.tobytes() == rounded.tobytes()
        assert fast.result_.losses == default.result_.losses
        assert fast.result_.privacy_spent == default.result_.privacy_spent
        assert fast.result_.epochs_run == default.result_.epochs_run

    @pytest.mark.parametrize(
        "workers", [1, pytest.param(2, marks=FORK_ONLY)], ids=["serial", "hogwild"]
    )
    @pytest.mark.parametrize(
        ("private", "trained"), [(False, np.float32), (True, np.float64)],
        ids=["se_gemb", "se_privgemb"],
    )
    def test_a_float32_fit_trains_in_its_method_dtype(self, graph, private, trained, workers):
        """SE-GEmb keeps its float32 compute path; SE-PrivGEmb trains in float64."""
        kwargs = dict(seed=0, compute_dtype="float32", workers=workers)
        if private:
            trainer = SEPrivGEmbTrainer(
                DegreeProximity(), training_config=TRAINING, privacy_config=PRIVACY, **kwargs
            )
        else:
            trainer = SEGEmbTrainer(DegreeProximity(), config=TRAINING, **kwargs)
        trainer._setup(graph, np.random.default_rng(0))
        try:
            assert trainer.model.w_in.dtype == trainer.model.w_out.dtype == np.dtype(trained)
            assert _workspace(trainer).dtype == np.dtype(trained)
        finally:
            trainer.model.release()

    def test_float32_private_artifact_round_trips(self, tmp_path, graph):
        model = get_method("se_privgemb_deg").build(
            training=TRAINING, privacy=PRIVACY, seed=0, proximity_cache="off",
            compute_dtype="float32",
        ).fit(graph)
        path = model.save(tmp_path / "private32.npz")
        _, metadata = load_artifact(path)
        assert metadata["build_options"]["compute_dtype"] == "float32"
        reloaded = Embedder.load(path)
        assert reloaded.compute_dtype == np.dtype(np.float32)
        assert reloaded.embeddings_.dtype == np.dtype(np.float32)
        assert reloaded.embeddings_.tobytes() == model.embeddings_.tobytes()

    def _float32_engine(self, graph):
        """A float32 SE-GEmb engine, and copies of its two matrices."""
        engine = _setup(graph, dtype="float32").engine
        assert engine.model.w_in.dtype == np.dtype(np.float32)
        return engine, engine.model.w_in.copy(), engine.model.w_out.copy()

    def test_perturbed_update_rejects_float32_parameters(self, graph):
        engine, w_in, w_out = self._float32_engine(graph)
        engine.update_rule = PerturbedUpdate(get_perturbation("nonzero", 2.0, 5.0, seed=0))
        with pytest.raises(TrainingError, match="float64 only"):
            engine.run(3)
        assert engine.model.w_in.tobytes() == w_in.tobytes()
        assert engine.model.w_out.tobytes() == w_out.tobytes()

    def test_iterate_averaging_rejects_float32_parameters(self, graph):
        engine, w_in, w_out = self._float32_engine(graph)
        engine.hooks += (IterateAveragingHook(),)
        with pytest.raises(TrainingError, match="float64 parameters only"):
            engine.run(3)
        assert engine.model.w_in.tobytes() == w_in.tobytes()
        assert engine.model.w_out.tobytes() == w_out.tobytes()


class TestEngineWorkspaceWiring:
    def test_perturbed_update_workspace_path_used(self, graph):
        trainer = _setup(graph, private=True)
        engine = trainer.engine
        assert isinstance(engine.update_rule, PerturbedUpdate)
        probe = _PerturbedRows()
        engine.hooks = (*engine.hooks, probe)
        engine.run(2)
        # the reused result holder was filled by every step, then dropped
        assert len(probe.rows) == 2 and all(rows > 0 for rows in probe.rows)
        assert probe.batch_sizes == [trainer._sampler.batch_size] * 2
        assert engine.workspace is None
        assert engine.update_rule.workspace is None

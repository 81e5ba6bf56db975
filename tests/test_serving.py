"""Serving layer: packed-key ranking, mmap store, query engine, batching server."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro import TrainingConfig
from repro.exceptions import (
    ArtifactError,
    ConfigurationError,
    ServerClosedError,
    TrainingError,
)
from repro.models import Embedder, get_method, peek_artifact
from repro.models.registry import _REGISTRY
from repro.serving import (
    BatchingServer,
    QUERY_PHASES,
    QueryEngine,
    QueryProfiler,
    ServableModel,
    TopKResult,
    export_servable,
    write_servable,
)
from repro.serving.engine import QueryWorkspace, _pack_keys_inplace, _unpack_keys
from topk_oracle import brute_force_topk, full_block_topk


@pytest.fixture(scope="module")
def embeddings():
    rng = np.random.default_rng(7)
    return rng.standard_normal((211, 12))


@pytest.fixture(scope="module")
def engine(embeddings):
    return QueryEngine(embeddings, max_batch=16, block_rows=37, max_k=211)


@pytest.fixture()
def fitted_model(small_graph):
    config = TrainingConfig(embedding_dim=8, batch_size=16, epochs=1)
    return get_method("se_privgemb_deg").build(training=config, seed=0).fit(small_graph)


# --------------------------------------------------------------------- #
# packed ranking keys
# --------------------------------------------------------------------- #
class TestPackedKeys:
    def _pack(self, scores):
        scores = np.asarray(scores, dtype=np.float32)[None, :]
        width = scores.shape[1]
        keys = np.empty((1, width), dtype=np.uint64)
        mask = np.empty((1, width), dtype=np.uint32)
        block_ids = np.arange(width, dtype=np.uint64)
        _pack_keys_inplace(scores.view(np.uint32), mask, keys, block_ids)
        return keys[0]

    def test_roundtrip_recovers_scores_and_ids(self, rng):
        scores = rng.standard_normal(256).astype(np.float32)
        keys = self._pack(scores)
        ids, decoded = _unpack_keys(keys)
        assert np.array_equal(ids, np.arange(256))
        assert np.array_equal(decoded, scores)

    def test_key_order_is_descending_score_then_ascending_id(self, rng):
        scores = rng.standard_normal(512).astype(np.float32)
        scores[::8] = scores[1::8]  # force exact ties
        keys = self._pack(scores)
        order = np.argsort(keys, kind="stable")
        expected = np.lexsort((np.arange(scores.size), -scores.astype(np.float64)))
        assert np.array_equal(order, expected)

    def test_extreme_values_rank_correctly(self):
        scores = np.array([0.0, -0.0, np.inf, -np.inf, 1e30, -1e30, 1e-40], np.float32)
        keys = self._pack(scores)
        ids, _ = _unpack_keys(keys[np.argsort(keys)])
        # +inf best, -inf worst; -0.0 ranks (only) below +0.0
        assert ids[0] == 2 and ids[-1] == 3
        assert list(ids).index(0) < list(ids).index(1)


class TestQueryWorkspaceLayout:
    def test_score_block_starts_past_a_page_boundary(self):
        """The 2 MiB-multiple score block must not start on a page boundary."""
        ws = QueryWorkspace(max_batch=64, max_k=10, block_rows=8192, dim=64)
        assert ws.scores.nbytes % (2 << 20) == 0  # the aliasing-prone geometry
        assert ws.scores.ctypes.data % 4096 != 0
        assert ws.scores.ctypes.data % 64 == 0
        assert ws.scores.flags.writeable and ws.scores.flags.c_contiguous
        assert not ws.scores.any()

    @pytest.mark.parametrize(("block_rows", "strips", "strip_len"),
                             [(1, 1, 1), (16, 1, 16), (17, 2, 9), (30, 2, 15),
                              (37, 3, 13), (8192, 512, 16)])
    def test_strip_geometry_comes_from_block_rows(self, block_rows, strips, strip_len):
        ws = QueryWorkspace(max_batch=4, max_k=3, block_rows=block_rows, dim=2)
        assert (ws.strips, ws.strip_len) == (strips, strip_len)
        assert ws.scores.shape == (4, strips * strip_len)
        assert ws.strip_max.shape == ws.seed.shape == (4, strips)


# --------------------------------------------------------------------- #
# the query engine
# --------------------------------------------------------------------- #
class TestQueryEngine:
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_matches_brute_force(self, engine, embeddings, metric, exclude_self):
        nodes = np.arange(0, 211, 5)
        result = engine.top_k(nodes, 9, metric=metric, exclude_self=exclude_self)
        ids, scores = brute_force_topk(
            embeddings, nodes, 9, metric=metric, exclude_self=exclude_self
        )
        assert np.array_equal(result.ids, ids)
        np.testing.assert_allclose(result.scores, scores, rtol=1e-4)

    def test_chunking_never_changes_the_answer(self, embeddings):
        nodes = np.arange(50)
        baseline = QueryEngine(embeddings, max_batch=64, block_rows=4096).top_k(nodes, 7)
        for max_batch, block_rows in [(1, 211), (3, 7), (16, 37), (50, 1)]:
            chunked = QueryEngine(
                embeddings, max_batch=max_batch, block_rows=block_rows
            ).top_k(nodes, 7)
            assert np.array_equal(chunked.ids, baseline.ids)
            # geometry may switch BLAS kernels: scores agree to the last ulps
            np.testing.assert_allclose(chunked.scores, baseline.scores, rtol=1e-6)

    def test_float64_reference_path_agrees(self, embeddings):
        nodes = np.arange(40)
        f32 = QueryEngine(embeddings, block_rows=61).top_k(nodes, 11)
        ids, scores = brute_force_topk(embeddings, nodes, 11)
        assert np.array_equal(f32.ids, ids)
        np.testing.assert_allclose(f32.scores, scores, rtol=1e-4)

    def test_ties_break_by_ascending_id(self):
        # duplicated rows -> exact score ties on every query
        row = np.array([[1.0, 2.0, 3.0]])
        for dtype in ("float32", "float64"):
            E = np.repeat(row, 6, axis=0).astype(dtype)
            result = QueryEngine(E, block_rows=2).top_k([3], 5)
            assert np.array_equal(result.ids[0], [0, 1, 2, 4, 5])
            assert np.array_equal(brute_force_topk(E, [3], 5)[0][0], [0, 1, 2, 4, 5])

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    @pytest.mark.parametrize("exclude_self", [True, False])
    def test_non_finite_rows_rank_by_one_contract(self, bad, dtype, metric, exclude_self):
        # nonzero integer rows keep every finite score exact in float32, and
        # inf * 0 out of the picture
        rng = np.random.default_rng(5)
        E = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(12, 3)).astype(dtype)
        E[7] = bad
        E[2, 1] = bad
        nodes = np.arange(12)
        k = 11 if exclude_self else 12
        engine = QueryEngine(E, block_rows=5, max_batch=4)
        for kk in (3, k):
            result = engine.top_k(nodes, kk, metric=metric, exclude_self=exclude_self)
            ids, scores = brute_force_topk(
                E, nodes, kk, metric=metric, exclude_self=exclude_self
            )
            assert np.array_equal(result.ids, ids)
            np.testing.assert_allclose(result.scores, scores, rtol=1e-6)  # NaN where NaN
            assert result.ids.max() < 12  # never a sentinel id
            if exclude_self:
                assert not (result.ids == nodes[:, None]).any()

    def test_topk_allocates_no_block_sized_arrays(self):
        rng = np.random.default_rng(2)
        engine = QueryEngine(rng.standard_normal((20_000, 64)), max_batch=64, max_k=10)
        nodes = rng.integers(0, 20_000, size=128)
        engine.top_k(nodes[:64], 10)  # warm-up: norms cache
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            engine.top_k(nodes[64:], 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 1 << 20

    def test_float32_input_is_served_in_place(self, embeddings):
        E = embeddings.astype(np.float32)
        engine = QueryEngine(E, block_rows=37)
        assert np.shares_memory(engine.embeddings, E)
        assert engine.embeddings.dtype == np.float32
        assert QueryEngine(embeddings).embeddings.dtype == np.float32

    @pytest.mark.parametrize("metric", ["cosine", "dot"])
    def test_float64_input_serves_as_its_float32_cast(self, embeddings, metric):
        """One serving dtype: ids and score bits equal those of the float32 cast."""
        E32 = embeddings.astype(np.float32)
        nodes = np.arange(0, 211, 3)
        rng = np.random.default_rng(4)
        u, v = rng.integers(0, 211, size=(2, 90))
        for max_batch, block_rows in [(1, 211), (3, 7), (16, 37), (64, 4096), (5, 1)]:
            wide, narrow = (
                QueryEngine(E, max_batch=max_batch, block_rows=block_rows, max_k=211)
                for E in (embeddings, E32)
            )
            for exclude_self in (True, False):
                got = wide.top_k(nodes, 13, metric=metric, exclude_self=exclude_self)
                want = narrow.top_k(nodes, 13, metric=metric, exclude_self=exclude_self)
                assert np.array_equal(got.ids, want.ids)
                assert np.array_equal(got.scores.view(np.uint32), want.scores.view(np.uint32))
            for raw in (True, False):
                got, want = (engine.score_links(u, v, raw=raw) for engine in (wide, narrow))
                assert got.dtype == want.dtype == np.float32
                assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_corpus_is_prepared_once_at_build(self):
        rng = np.random.default_rng(2)
        E = rng.standard_normal((20_000, 64))
        tracemalloc.start()
        try:
            engine = QueryEngine(E, max_batch=64, max_k=10)
            _, built_peak = tracemalloc.get_traced_memory()
            corpus = engine.embeddings
            for call in range(2):  # neither the first call nor the next casts again
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                engine.top_k(rng.integers(0, 20_000, size=64), 10)
                _, peak = tracemalloc.get_traced_memory()
                assert peak - before < 1 << 20, call
        finally:
            tracemalloc.stop()
        assert built_peak >= E.size * 4  # the one float32 cast
        assert engine.embeddings is corpus

    def test_k_clamps_to_candidate_count(self, embeddings):
        engine = QueryEngine(embeddings, max_k=211)
        assert engine.top_k([5], 10_000).k == 210  # exclude_self drops one
        assert engine.top_k([5], 10_000, exclude_self=False).k == 211

    def test_k_zero_and_empty_batch(self, engine):
        empty_k = engine.top_k([1, 2], 0)
        assert empty_k.ids.shape == (2, 0) and empty_k.scores.shape == (2, 0)
        empty_batch = engine.top_k([], 5)
        assert empty_batch.ids.shape == (0, 5)

    def test_exclude_self_controls_self_hits(self, engine):
        nodes = [0, 17, 99]
        excluded = engine.top_k(nodes, 10)
        for row, node in enumerate(nodes):
            assert node not in excluded.ids[row]
        included = engine.top_k(nodes, 1, metric="cosine", exclude_self=False)
        assert np.array_equal(included.ids[:, 0], nodes)  # self is its own best match

    def test_duplicate_query_ids_answered_independently(self, engine):
        result = engine.top_k([42, 42, 42], 6)
        assert np.array_equal(result.ids[0], result.ids[1])
        assert np.array_equal(result.ids[1], result.ids[2])

    def test_k_above_max_k_raises(self, embeddings):
        engine = QueryEngine(embeddings, max_k=8)
        with pytest.raises(ConfigurationError, match="max_k"):
            engine.top_k([0], 9)

    def test_invalid_inputs_raise(self, engine, embeddings):
        with pytest.raises(ConfigurationError):
            engine.top_k([0], -1)
        with pytest.raises(ConfigurationError):
            engine.top_k([-1], 3)
        with pytest.raises(ConfigurationError):
            engine.top_k([10_000], 3)
        with pytest.raises(ConfigurationError):
            engine.top_k([0], 3, metric="euclid")
        with pytest.raises(ConfigurationError):
            QueryEngine(np.zeros(4))
        with pytest.raises(ConfigurationError):
            QueryEngine(np.zeros((4, 2), dtype=np.int64))

    def test_score_links_matches_sigmoid_dot(self, engine, embeddings):
        rng = np.random.default_rng(3)
        u = rng.integers(0, 211, size=40)
        v = rng.integers(0, 211, size=40)
        expected = 1.0 / (1.0 + np.exp(-np.einsum("ij,ij->i", embeddings[u], embeddings[v])))
        np.testing.assert_allclose(engine.score_links(u, v), expected, rtol=1e-4)
        raw = engine.score_links(u, v, raw=True)
        np.testing.assert_allclose(
            raw, np.einsum("ij,ij->i", embeddings[u], embeddings[v]), rtol=1e-4
        )
        with pytest.raises(ConfigurationError):
            engine.score_links([1, 2], [3])

    def test_result_survives_workspace_reuse(self, engine):
        first = engine.top_k([1, 2], 5)
        kept_ids, kept_scores = first.ids.copy(), first.scores.copy()
        engine.top_k(np.arange(16), 5)  # clobber the workspace
        assert np.array_equal(first.ids, kept_ids)
        assert np.array_equal(first.scores, kept_scores)

    def test_profiler_records_phases_per_query(self, embeddings):
        profiler = QueryProfiler()
        engine = QueryEngine(embeddings, profiler=profiler, block_rows=50)
        engine.top_k(np.arange(10), 5)
        engine.top_k([3], 5)
        profile = profiler.profile()
        assert profile.steps == 11
        assert profiler.calls == 2
        for phase in QUERY_PHASES:
            assert profile.phase_seconds[phase] >= 0.0
        profiler.reset()
        assert profiler.profile().steps == 0


class TestStripGate:
    """Strip-gated ranking: ids and score bits equal the full-block reference."""

    @staticmethod
    def _check(E, nodes, k, *, max_batch=16, block_rows=37, metrics=("cosine", "dot")):
        engine = QueryEngine(E, max_batch=max_batch, block_rows=block_rows, max_k=E.shape[0])
        for metric in metrics:
            for exclude_self in (True, False):
                got = engine.top_k(nodes, k, metric=metric, exclude_self=exclude_self)
                ids, scores = full_block_topk(
                    E, nodes, k, metric=metric, exclude_self=exclude_self,
                    max_batch=max_batch, block_rows=block_rows,
                )
                assert np.array_equal(got.ids, ids), (metric, exclude_self)
                nan = np.isnan(scores)
                assert np.array_equal(np.isnan(got.scores), nan)
                assert np.array_equal(got.scores.view(np.uint32)[~nan],
                                      scores.view(np.uint32)[~nan])
        return engine

    @pytest.mark.parametrize("block_rows", [37, 100])
    @pytest.mark.parametrize("k", [1, 9, 120])
    def test_several_strips_with_a_partial_last_strip(self, embeddings, block_rows, k):
        engine = self._check(embeddings, np.arange(0, 211, 2), k, block_rows=block_rows)
        ws = engine.workspace
        assert ws.strips > 1 and ws.strip_len > 1
        # the last block fills its last strip position only in part
        assert (211 % block_rows) % ws.strips != 0

    @pytest.mark.parametrize(("block_rows", "k"), [(37, 5), (37, 40), (16, 3)])
    def test_k_above_the_strip_count(self, embeddings, block_rows, k):
        engine = self._check(embeddings, np.arange(0, 211, 3), k, block_rows=block_rows)
        assert engine.workspace.strips < k  # the seed falls back to -inf

    @pytest.mark.parametrize("k", [5, 12, 30, 50, 60])
    def test_exact_ties_across_strips_and_signed_zeros(self, k):
        # cosine against [1, 0, 0]: 1.0 for every copy of it, and ±1e-30
        # over a 1e18 row norm underflows to +0.0 / -0.0
        rows = np.array([[1.0, 0.0, 0.0], [1e-30, 1e18, 0.0], [-1e-30, 1e18, 0.0],
                         [0.0, 0.0, 0.0]])
        E = rows[np.random.default_rng(3).permutation(np.repeat(np.arange(4), 20))]
        nodes = np.flatnonzero(E[:, 0] == 1.0)
        self._check(E, nodes, k, max_batch=7, block_rows=33)
        _, scores = full_block_topk(E, nodes, 79, block_rows=33)
        zeros = scores[scores == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("k", [3, 20, 140])
    def test_nan_and_infinite_rows(self, k):
        rng = np.random.default_rng(5)
        E = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(150, 4))
        E[7] = np.nan
        E[40] = np.inf
        E[41] = -np.inf
        E[2, 1] = np.inf
        E[90, 3] = np.nan
        self._check(E, np.arange(150), k)

    def test_duplicate_query_ids(self, embeddings):
        nodes = np.array([5, 5, 17, 5, 17, 200, 5, 200, 5])
        self._check(embeddings, nodes, 9, max_batch=3)

    @pytest.mark.parametrize("k", [2, 4, 30])
    def test_exclude_self_at_every_strip_position(self, k):
        # 3-D rows cluster tightly, so the excluded query is its strip's best
        # score; 94 = 2 * 37 + 20 puts a query at every position of every strip
        E = np.random.default_rng(8).standard_normal((94, 3))
        engine = self._check(E, np.arange(94), k)
        assert engine.workspace.strips == 3


# --------------------------------------------------------------------- #
# the servable store
# --------------------------------------------------------------------- #
class TestServableStore:
    def test_round_trip(self, tmp_path, embeddings):
        path = tmp_path / "model.servable"
        write_servable(path, {"embeddings": embeddings}, {"method": "m"})
        with ServableModel.open(path, check_registry=False) as servable:
            assert servable.num_nodes == 211 and servable.embedding_dim == 12
            assert servable.payload_nbytes == embeddings.nbytes
            np.testing.assert_array_equal(servable.embeddings, embeddings)
            assert isinstance(servable.embeddings, np.memmap)

    def test_mmap_engine_equals_in_memory_engine(self, tmp_path, embeddings):
        path = tmp_path / "model.servable"
        write_servable(path, {"embeddings": embeddings}, {})
        with ServableModel.open(path, check_registry=False) as servable:
            mapped = servable.query_engine(block_rows=31).top_k(np.arange(30), 8)
        direct = QueryEngine(embeddings, block_rows=64).top_k(np.arange(30), 8)
        assert np.array_equal(mapped.ids, direct.ids)
        assert np.array_equal(mapped.scores, direct.scores)

    def test_open_is_zero_copy(self, tmp_path):
        """Opening + touching a servable allocates O(metadata), not O(payload)."""
        payload = np.zeros((20_000, 32), dtype=np.float32)  # 2.56 MB
        path = tmp_path / "big.servable"
        write_servable(path, {"embeddings": payload}, {})
        tracemalloc.start()
        with ServableModel.open(path, check_registry=False) as servable:
            assert servable.embeddings[12_345, 3] == 0.0
            current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 0.05 * payload.nbytes

    def test_overwrite_semantics(self, tmp_path, embeddings):
        path = tmp_path / "model.servable"
        write_servable(path, {"embeddings": embeddings}, {"rev": 1})
        with pytest.raises(ArtifactError, match="overwrite"):
            write_servable(path, {"embeddings": embeddings}, {"rev": 2})
        write_servable(path, {"embeddings": embeddings[:10]}, {"rev": 2}, overwrite=True)
        with ServableModel.open(path, check_registry=False) as servable:
            assert servable.num_nodes == 10
            assert servable.metadata["rev"] == 2

    def test_writes_are_atomic_no_temp_left_behind(self, tmp_path, embeddings):
        with pytest.raises(ArtifactError):
            write_servable(tmp_path / "bad.servable", {"weights": embeddings}, {})
        assert list(tmp_path.iterdir()) == []  # no temp directory litter

    def test_rejects_foreign_and_corrupt_directories(self, tmp_path, embeddings):
        with pytest.raises(ArtifactError, match="no servable"):
            ServableModel.open(tmp_path / "missing")
        path = tmp_path / "model.servable"
        write_servable(path, {"embeddings": embeddings}, {})
        document = json.loads((path / "servable.json").read_text())

        (path / "servable.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupt"):
            ServableModel.open(path)

        (path / "servable.json").write_text(json.dumps({**document, "format": "other"}))
        with pytest.raises(ArtifactError, match="does not contain"):
            ServableModel.open(path)

        (path / "servable.json").write_text(
            json.dumps({**document, "format_version": 99})
        )
        with pytest.raises(ArtifactError, match="version"):
            ServableModel.open(path)

        tampered = json.loads(json.dumps(document))
        tampered["arrays"]["embeddings"]["shape"] = [1, 1]
        (path / "servable.json").write_text(json.dumps(tampered))
        with pytest.raises(ArtifactError, match="promises"):
            ServableModel.open(path)

        escaped = json.loads(json.dumps(document))
        escaped["arrays"]["embeddings"]["file"] = "../evil.npy"
        (path / "servable.json").write_text(json.dumps(escaped))
        with pytest.raises(ArtifactError, match="escapes"):
            ServableModel.open(path)

    def test_close_invalidates_accessors(self, tmp_path, embeddings):
        path = tmp_path / "model.servable"
        write_servable(path, {"embeddings": embeddings}, {})
        servable = ServableModel.open(path, check_registry=False)
        servable.close()
        with pytest.raises(ArtifactError, match="closed"):
            servable.embeddings


# --------------------------------------------------------------------- #
# estimator handoff: save -> export -> open -> query without refitting
# --------------------------------------------------------------------- #
class TestEmbedderHandoff:
    def test_export_open_query(self, tmp_path, fitted_model):
        servable_path = fitted_model.export_servable(tmp_path / "m.servable")
        with ServableModel.open(servable_path) as servable:
            assert servable.method == "se_privgemb_deg"
            np.testing.assert_array_equal(servable.embeddings, fitted_model.embeddings_)
            assert servable.context_embeddings is not None
            result = servable.query_engine().top_k([0, 1], 5)
            assert isinstance(result, TopKResult)

    def test_export_from_artifact_path(self, tmp_path, fitted_model):
        artifact = tmp_path / "m.npz"
        fitted_model.save(artifact)
        export_servable(artifact, tmp_path / "m.servable")
        with ServableModel.open(tmp_path / "m.servable") as servable:
            np.testing.assert_array_equal(servable.embeddings, fitted_model.embeddings_)

    def test_loaded_estimator_serves_without_refitting(self, tmp_path, fitted_model):
        artifact = tmp_path / "m.npz"
        fitted_model.save(artifact)
        loaded = Embedder.load(artifact)
        engine = loaded.as_servable(max_batch=4)
        direct = fitted_model.as_servable(max_batch=4)
        nodes = np.arange(10)
        assert np.array_equal(engine.top_k(nodes, 5).ids, direct.top_k(nodes, 5).ids)

    def test_as_servable_requires_fit(self):
        model = get_method("se_privgemb_deg").build(seed=0)
        with pytest.raises(TrainingError, match="not fitted"):
            model.as_servable()

    def test_as_servable_refuses_drifted_spec(self, monkeypatch, fitted_model):
        spec = _REGISTRY["se_privgemb_deg"]
        monkeypatch.setitem(
            _REGISTRY, "se_privgemb_deg", dataclasses.replace(spec, perturbation="naive")
        )
        with pytest.raises(ArtifactError, match="re-registered"):
            fitted_model.as_servable()
        with pytest.raises(ArtifactError, match="re-registered"):
            fitted_model.export_servable("unused.servable")

    def test_open_refuses_drifted_registry(self, tmp_path, monkeypatch, fitted_model):
        path = fitted_model.export_servable(tmp_path / "m.servable")
        spec = _REGISTRY["se_privgemb_deg"]
        monkeypatch.setitem(
            _REGISTRY, "se_privgemb_deg", dataclasses.replace(spec, perturbation="naive")
        )
        with pytest.raises(ArtifactError, match="drifted"):
            ServableModel.open(path)
        with ServableModel.open(path, check_registry=False) as servable:  # escape hatch
            assert servable.num_nodes == fitted_model.embeddings_.shape[0]

    def test_open_refuses_unregistered_method(self, tmp_path, monkeypatch, fitted_model):
        path = fitted_model.export_servable(tmp_path / "m.servable")
        monkeypatch.delitem(_REGISTRY, "se_privgemb_deg")
        with pytest.raises(ArtifactError, match="not\\s+registered"):
            ServableModel.open(path)


# --------------------------------------------------------------------- #
# peek_artifact
# --------------------------------------------------------------------- #
class TestPeekArtifact:
    def test_returns_metadata_and_array_info(self, tmp_path, fitted_model):
        artifact = tmp_path / "m.npz"
        fitted_model.save(artifact)
        peeked = peek_artifact(artifact)
        assert peeked["method"] == "se_privgemb_deg"
        assert peeked["arrays"]["embeddings"]["shape"] == list(
            fitted_model.embeddings_.shape
        )
        assert peeked["arrays"]["embeddings"]["dtype"] == "float64"
        # agrees with the full loader's metadata
        loaded = Embedder.load(artifact)
        assert peeked["dataset_fingerprint"] == loaded.dataset_fingerprint_

    def test_missing_and_foreign_files_raise(self, tmp_path):
        with pytest.raises(ArtifactError, match="no model artifact"):
            peek_artifact(tmp_path / "missing.npz")
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, data=np.zeros(3))
        with pytest.raises(ArtifactError):
            peek_artifact(foreign)


# --------------------------------------------------------------------- #
# the batching server
# --------------------------------------------------------------------- #
class _ThreadRecordingEngine:
    """Delegates to a :class:`QueryEngine`, recording the thread of each call.

    With a ``gate``, every call first waits for the event to be set (at
    most 10 s, so a stop that waits for the call shows as slow, not hung).
    """

    def __init__(self, engine, gate: threading.Event | None = None):
        self.engine = engine
        self.max_batch = engine.max_batch
        self.gate = gate
        self.threads: list[threading.Thread] = []

    def top_k(self, nodes, k, **options):
        self.threads.append(threading.current_thread())
        if self.gate is not None:
            self.gate.wait(10.0)
        return self.engine.top_k(nodes, k, **options)


class TestBatchingServer:
    def test_coalesces_concurrent_requests(self, engine, embeddings):
        async def scenario():
            async with BatchingServer(engine, max_delay=0.01) as server:
                answers = await asyncio.gather(
                    *(server.top_k(node, k=5) for node in range(12))
                )
                return answers, server.stats

        answers, stats = asyncio.run(scenario())
        expected_ids, expected_scores = brute_force_topk(embeddings, range(12), 5)
        for row, (ids, scores) in enumerate(answers):
            assert np.array_equal(ids, expected_ids[row])
            np.testing.assert_allclose(scores, expected_scores[row], rtol=1e-4)
        assert stats.requests == 12
        assert stats.batches < stats.requests  # coalescing actually happened
        assert stats.coalesced_requests > 0
        assert stats.mean_batch_size > 1.0

    def test_mixed_k_requests_flush_as_separate_groups(self, engine):
        async def scenario():
            async with BatchingServer(engine, max_delay=0.01) as server:
                mixed = await asyncio.gather(
                    server.top_k(1, k=3),
                    server.top_k(2, k=5),
                    server.top_k(3, k=3),
                    server.top_k(4, k=5, metric="dot"),
                )
                return mixed, server.stats

        mixed, stats = asyncio.run(scenario())
        assert [ids.size for ids, _ in mixed] == [3, 5, 3, 5]
        assert stats.requests == 4
        assert stats.batches >= 3  # (k=3), (k=5 cosine), (k=5 dot)

    def test_max_batch_flushes_early(self, engine):
        async def scenario():
            # a window long enough that only the size trigger can flush
            async with BatchingServer(engine, max_batch=4, max_delay=5.0) as server:
                await asyncio.gather(*(server.top_k(node, k=2) for node in range(8)))
                return server.stats

        stats = asyncio.run(scenario())
        assert stats.max_batch_size <= 4
        assert stats.batches >= 2

    def test_stop_drains_pending_requests(self, engine):
        async def scenario():
            server = await BatchingServer(engine, max_delay=10.0).start()
            pending = [asyncio.ensure_future(server.top_k(node, k=2)) for node in range(5)]
            await asyncio.sleep(0)  # let the requests enqueue
            await server.stop()  # must flush them, not strand them
            return await asyncio.gather(*pending)

        answers = asyncio.run(scenario())
        assert len(answers) == 5
        assert all(ids.size == 2 for ids, _ in answers)

    def test_request_while_stopped_raises(self, engine):
        async def scenario():
            server = BatchingServer(engine)
            with pytest.raises(RuntimeError, match="not running"):
                await server.top_k(0, k=2)
            async with server:
                await server.top_k(0, k=2)
            with pytest.raises(RuntimeError, match="not running"):
                await server.top_k(0, k=2)

        asyncio.run(scenario())

    def test_engine_errors_reach_every_waiter(self, engine):
        async def scenario():
            async with BatchingServer(engine, max_delay=0.01) as server:
                results = await asyncio.gather(
                    *(server.top_k(node, k=5, metric="bogus") for node in range(3)),
                    return_exceptions=True,
                )
                return results

        results = asyncio.run(scenario())
        assert len(results) == 3
        assert all(isinstance(exc, ConfigurationError) for exc in results)

    def test_invalid_configuration_raises(self, engine):
        with pytest.raises(ConfigurationError):
            BatchingServer(engine, max_delay=-1.0)
        with pytest.raises(ConfigurationError):
            BatchingServer(engine, max_batch=0)

    def test_every_engine_call_runs_on_the_one_server_thread(self, engine):
        recording = _ThreadRecordingEngine(engine)

        async def cycle(server):
            async with server:
                await asyncio.gather(*(server.top_k(node, k=3) for node in range(40)))
                for node in range(5):  # one call per request
                    await server.top_k(node, k=3)
            return len(recording.threads)

        async def scenario():
            server = BatchingServer(recording, max_delay=0.001)
            first = await cycle(server)
            await cycle(server)
            return first

        first = asyncio.run(scenario())
        assert 8 <= first < len(recording.threads)
        for calls in (recording.threads[:first], recording.threads[first:]):
            assert len(set(calls)) == 1
            (thread,) = set(calls)
            assert thread is not threading.main_thread()
            assert thread.name.startswith("repro-serve")
        # the first cycle's thread was joined before the second one started
        assert recording.threads[0] is not recording.threads[-1]

    def test_drained_stop_joins_the_server_thread(self, engine):
        recording = _ThreadRecordingEngine(engine)

        async def scenario():
            server = BatchingServer(recording, max_delay=0.001)
            async with server:
                await asyncio.gather(*(server.top_k(node, k=3) for node in range(8)))
                assert all(thread.is_alive() for thread in recording.threads)
            # checked while the server is still referenced: its worker
            # thread is gone because stop joined it, not because it was freed
            return [thread.is_alive() for thread in recording.threads], server

        alive, _ = asyncio.run(scenario())
        assert alive and not any(alive)

    def test_bounded_stop_does_not_wait_for_a_stalled_call(self, engine):
        recording = _ThreadRecordingEngine(engine, gate=threading.Event())

        async def scenario():
            server = await BatchingServer(recording, max_delay=0.001).start()
            waiter = asyncio.ensure_future(server.top_k(1, k=3))
            while not recording.threads:  # the call is now stalled on the gate
                await asyncio.sleep(0.001)
            start = time.perf_counter()
            await server.stop(drain_timeout=0.05)
            stopped_in = time.perf_counter() - start
            recording.gate.set()
            with pytest.raises(ServerClosedError):
                await waiter
            # a restart serves behind the released call; its drained stop joins
            async with server:
                await server.top_k(2, k=3)
            return stopped_in

        stopped_in = asyncio.run(scenario())
        assert stopped_in < 0.05 + 0.45
        assert len(set(recording.threads)) == 1
        assert not recording.threads[0].is_alive()

    def test_drained_stop_does_not_wait_for_an_abandoned_call(self, engine):
        recording = _ThreadRecordingEngine(engine, gate=threading.Event())

        async def scenario():
            server = await BatchingServer(recording, max_delay=0.001).start()
            start = time.perf_counter()
            stalled = asyncio.ensure_future(server.top_k(1, k=3))
            while not recording.threads:
                await asyncio.sleep(0.001)
            await server.stop(drain_timeout=0.05)
            # a restarted server's call queues behind the stalled one, and
            # a second bounded stop cancels it before it runs
            await server.start()
            queued = asyncio.ensure_future(server.top_k(2, k=3))
            await asyncio.sleep(0.02)
            await server.stop(drain_timeout=0.05)
            await server.start()
            await server.stop()  # drained, with the worker still stalled
            stopped_in = time.perf_counter() - start
            recording.gate.set()
            outcomes = await asyncio.gather(stalled, queued, return_exceptions=True)
            async with server:
                await server.top_k(3, k=3)
            return stopped_in, outcomes

        stopped_in, outcomes = asyncio.run(scenario())
        assert stopped_in < 0.15 + 0.45
        assert all(isinstance(outcome, ServerClosedError) for outcome in outcomes)
        assert len(recording.threads) == 2  # the cancelled call never ran
        assert len(set(recording.threads)) == 1


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestServingCli:
    def test_inspect_artifact_and_servable(self, tmp_path, fitted_model, capsys):
        from repro.experiments.__main__ import main

        artifact = tmp_path / "m.npz"
        fitted_model.save(artifact)
        assert main(["inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "se_privgemb_deg" in out and "artifact" in out

        servable = fitted_model.export_servable(tmp_path / "m.servable")
        assert main(["inspect", str(servable)]) == 0
        out = capsys.readouterr().out
        assert "memory-mapped" in out

    def test_query_from_servable(self, tmp_path, fitted_model, capsys):
        from repro.experiments.__main__ import main

        servable = fitted_model.export_servable(tmp_path / "m.servable")
        assert main(["query", str(servable), "--nodes", "0,3", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert out.count("node ") == 2
        expected = fitted_model.as_servable().top_k([0, 3], 4)
        assert f"{int(expected.ids[0][0])}:" in out

    def test_query_from_artifact(self, tmp_path, fitted_model, capsys):
        from repro.experiments.__main__ import main

        artifact = tmp_path / "m.npz"
        fitted_model.save(artifact)
        assert main(["query", str(artifact), "--nodes", "1", "--k", "2"]) == 0
        assert "node 1:" in capsys.readouterr().out

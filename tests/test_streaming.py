"""Streaming subsystem: edge deltas, incremental invalidation, warm starts, ledger."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    DeltaPlanner,
    EdgeDelta,
    Graph,
    GraphError,
    PrivacyBudgetExhausted,
    PrivacyError,
    PrivacyLedger,
    TrainingConfig,
    apply_delta,
)
from repro.graph.generators import watts_strogatz_graph
from repro.models import WarmStart, get_method, peek_artifact
from repro.privacy import RdpAccountant
from repro.proximity import available_proximities, get_proximity
from repro.proximity.cache import ProximityCache


def _scratch_fingerprint(graph: Graph, delta: EdgeDelta) -> str:
    """Rebuild the post-delta graph from an edited edge list, the slow way."""
    edge_set = {(int(u), int(v)) for u, v in graph.edges.tolist()}
    edge_set -= {(int(u), int(v)) for u, v in delta.deletes.tolist()}
    edge_set |= {(int(u), int(v)) for u, v in delta.inserts.tolist()}
    n = graph.num_nodes if delta.num_nodes is None else delta.num_nodes
    return Graph(n, sorted(edge_set)).content_fingerprint()


@pytest.fixture(scope="module")
def base_graph() -> Graph:
    return watts_strogatz_graph(160, 6, 0.15, seed=31)


@pytest.fixture(scope="module")
def churn_delta(base_graph: Graph) -> EdgeDelta:
    """A mixed delta: deletions, insertions, and two new nodes."""
    rng = np.random.default_rng(7)
    edges = base_graph.edges
    deletes = edges[rng.choice(edges.shape[0], size=6, replace=False)]
    existing = {(int(u), int(v)) for u, v in edges.tolist()}
    inserts = []
    while len(inserts) < 6:
        u, v = sorted(rng.integers(0, base_graph.num_nodes, size=2).tolist())
        if u != v and (u, v) not in existing and (u, v) not in inserts:
            inserts.append((u, v))
    inserts += [(3, 160), (160, 161)]
    return EdgeDelta(inserts=inserts, deletes=deletes, num_nodes=162)


@pytest.fixture(scope="module")
def growth_graph() -> Graph:
    return watts_strogatz_graph(400, 4, 0.05, seed=31)


@pytest.fixture(scope="module")
def growth_delta(growth_graph: Graph) -> EdgeDelta:
    """A light churn plus a new hub: node 401 joins with 8 edges and becomes
    the peak degree, so degree and DeepWalk rescale their reused rows."""
    rng = np.random.default_rng(5)
    edges = growth_graph.edges
    deletes = edges[rng.choice(edges.shape[0], size=3, replace=False)]
    existing = {(int(u), int(v)) for u, v in edges.tolist()}
    inserts = []
    while len(inserts) < 3:
        u, v = sorted(rng.integers(0, growth_graph.num_nodes, size=2).tolist())
        if u != v and (u, v) not in existing and (u, v) not in inserts:
            inserts.append((u, v))
    inserts += [(0, 400)] + [(u, 401) for u in (10, 50, 90, 130, 170, 210, 250, 400)]
    return EdgeDelta(inserts=inserts, deletes=deletes, num_nodes=402)


class TestEdgeDelta:
    def test_canonicalisation_collapses_mirrors_and_duplicates(self):
        delta = EdgeDelta(inserts=[(2, 1), (1, 2), (4, 3)])
        assert delta.inserts.tolist() == [[1, 2], [3, 4]]
        assert delta.num_inserts == 2

    def test_rejects_self_loops_and_negative_ids(self):
        with pytest.raises(GraphError):
            EdgeDelta(inserts=[(3, 3)])
        with pytest.raises(GraphError):
            EdgeDelta(deletes=[(-1, 2)])

    def test_rejects_insert_delete_overlap(self):
        with pytest.raises(GraphError, match="both inserts and deletes"):
            EdgeDelta(inserts=[(0, 1), (2, 3)], deletes=[(1, 0)])

    def test_immutable_arrays(self):
        delta = EdgeDelta(inserts=[(0, 1)])
        with pytest.raises(ValueError):
            delta.inserts[0, 0] = 5

    def test_touched_nodes_and_emptiness(self):
        delta = EdgeDelta(inserts=[(5, 2)], deletes=[(7, 2)])
        assert delta.touched_nodes.tolist() == [2, 5, 7]
        assert not delta.is_empty
        assert EdgeDelta().is_empty
        assert EdgeDelta().touched_nodes.size == 0

    def test_fingerprint_tracks_content(self):
        a = EdgeDelta(inserts=[(0, 1)], deletes=[(2, 3)])
        b = EdgeDelta(inserts=[(1, 0)], deletes=[(3, 2)])
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != EdgeDelta(inserts=[(0, 1)]).fingerprint()
        assert (
            EdgeDelta(inserts=[(0, 1)], num_nodes=9).fingerprint()
            != EdgeDelta(inserts=[(0, 1)]).fingerprint()
        )

    def test_repr_mentions_batch_sizes(self):
        assert "inserts=1" in repr(EdgeDelta(inserts=[(0, 1)], num_nodes=4))


class TestApplyDelta:
    def test_matches_scratch_rebuild(self, base_graph, churn_delta):
        updated = apply_delta(base_graph, churn_delta)
        assert updated.num_nodes == 162
        assert updated.content_fingerprint() == _scratch_fingerprint(
            base_graph, churn_delta
        )

    def test_empty_delta_is_identity(self, base_graph):
        updated = apply_delta(base_graph, EdgeDelta())
        assert updated.content_fingerprint() == base_graph.content_fingerprint()

    def test_delete_only_and_insert_only(self, base_graph):
        victim = tuple(int(x) for x in base_graph.edges[0])
        shrunk = apply_delta(base_graph, EdgeDelta(deletes=[victim]))
        assert shrunk.num_edges == base_graph.num_edges - 1
        grown = apply_delta(shrunk, EdgeDelta(inserts=[victim]))
        assert grown.content_fingerprint() == base_graph.content_fingerprint()

    def test_strict_delete_of_missing_edge(self, base_graph):
        existing = {(int(u), int(v)) for u, v in base_graph.edges.tolist()}
        missing = next(
            (u, v)
            for u in range(base_graph.num_nodes)
            for v in range(u + 1, base_graph.num_nodes)
            if (u, v) not in existing
        )
        with pytest.raises(GraphError, match="non-existent"):
            apply_delta(base_graph, EdgeDelta(deletes=[missing]))

    def test_strict_insert_of_present_edge(self, base_graph):
        present = tuple(int(x) for x in base_graph.edges[5])
        with pytest.raises(GraphError, match="already-present"):
            apply_delta(base_graph, EdgeDelta(inserts=[present]))

    def test_growth_requires_num_nodes(self, base_graph):
        n = base_graph.num_nodes
        with pytest.raises(GraphError, match="num_nodes"):
            apply_delta(base_graph, EdgeDelta(inserts=[(0, n)]))
        grown = apply_delta(base_graph, EdgeDelta(inserts=[(0, n)], num_nodes=n + 1))
        assert grown.num_nodes == n + 1

    def test_cannot_shrink_node_set(self, base_graph):
        with pytest.raises(GraphError, match="shrink"):
            apply_delta(base_graph, EdgeDelta(num_nodes=base_graph.num_nodes - 1))

    def test_rejects_non_graph(self):
        with pytest.raises(GraphError):
            apply_delta(object(), EdgeDelta())


class TestWithExtraEdges:
    def test_duplicate_insert_warns(self, triangle_graph):
        with pytest.warns(RuntimeWarning, match="already present"):
            triangle_graph.with_extra_edges([(0, 1)])
        with pytest.warns(RuntimeWarning, match="already present"):
            triangle_graph.with_extra_edges([(1, 3), (3, 1)])

    def test_fresh_insert_is_silent(self, triangle_graph):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grown = triangle_graph.with_extra_edges([(1, 3)])
        assert grown.num_edges == triangle_graph.num_edges + 1


class TestDeltaPlanner:
    @pytest.mark.parametrize("name", available_proximities())
    def test_refresh_matches_scratch_for_every_measure(
        self, name, base_graph, churn_delta, growth_graph, growth_delta
    ):
        # the global measures always plan a full recompute; on the churn
        # input DeepWalk's radius-5 ball also covers all 162 rows, while the
        # growth input makes every local measure splice, rescales included
        global_measures = {"katz", "ppr", "preferential_attachment"}
        inputs = [
            (base_graph, churn_delta, global_measures | {"deepwalk"}),
            (growth_graph, growth_delta, global_measures),
        ]
        measure = get_proximity(name)
        for graph, delta, full_scope in inputs:
            new_graph = apply_delta(graph, delta)
            old = measure.compute(graph, sparse=True)
            result = DeltaPlanner().refresh(
                graph, delta, measure, new_graph=new_graph, sparse=True, old_matrix=old
            )
            assert result.plan.scope == ("full" if name in full_scope else "rows")
            scratch = measure.compute(new_graph, sparse=True)
            assert result.matrix.is_sparse == scratch.is_sparse
            if scratch.is_sparse:
                diff = result.matrix.sparse_matrix - scratch.sparse_matrix
                error = np.abs(diff.toarray()).max() if diff.nnz else 0.0
            else:
                error = np.abs(result.matrix.matrix - scratch.matrix).max()
            assert error <= 1e-10
            if result.plan.scope == "rows":
                assert result.source == "splice"
                assert result.plan.num_reused > 0
            else:
                assert result.source == "full"

    def test_growth_rescales_reused_rows(self, growth_graph, growth_delta):
        # node 401 becomes the peak degree (5 -> 8) and the volume grows
        planner = DeltaPlanner()
        degree = planner.plan(growth_graph, growth_delta, get_proximity("degree"))
        assert degree.row_scale == pytest.approx(5 / 8)
        deepwalk = planner.plan(
            growth_graph, growth_delta, get_proximity("deepwalk"), sparse=True
        )
        assert deepwalk.scope == "rows"
        assert deepwalk.radius == 5
        assert deepwalk.row_scale == pytest.approx(1.011, abs=1e-3)

    def test_global_measures_plan_full(self, base_graph, churn_delta):
        planner = DeltaPlanner()
        for name in ("katz", "ppr", "preferential_attachment"):
            plan = planner.plan(base_graph, churn_delta, get_proximity(name))
            assert plan.scope == "full"

    def test_local_measures_plan_rows(self, base_graph, churn_delta):
        planner = DeltaPlanner()
        plan = planner.plan(
            base_graph, churn_delta, get_proximity("common_neighbors"), sparse=True
        )
        assert plan.scope == "rows"
        assert plan.radius == 1
        assert 0.0 < plan.reuse_fraction < 1.0
        new_nodes = set(range(base_graph.num_nodes, 162))
        assert new_nodes <= set(plan.affected_rows.tolist())

    def test_dense_backend_falls_back_to_full(self, base_graph, churn_delta):
        plan = DeltaPlanner().plan(
            base_graph, churn_delta, get_proximity("common_neighbors"), sparse=False
        )
        assert plan.scope == "full"
        assert "CSR" in plan.reason

    def test_empty_delta_reuses_matrix_verbatim(self, base_graph):
        measure = get_proximity("jaccard")
        old = measure.compute(base_graph, sparse=True)
        result = DeltaPlanner().refresh(
            base_graph, EdgeDelta(), measure, sparse=True, old_matrix=old
        )
        assert result.source == "splice"
        assert result.matrix is old

    def test_refresh_through_cache(self, base_graph, churn_delta, tmp_path):
        cache = ProximityCache(tmp_path / "proximity")
        measure = get_proximity("common_neighbors")
        cache.get_or_compute(measure, base_graph, sparse=True)
        new_graph = apply_delta(base_graph, churn_delta)
        planner = DeltaPlanner(cache)
        first = planner.refresh(
            base_graph, churn_delta, measure, new_graph=new_graph, sparse=True
        )
        assert first.source == "splice"
        again = planner.refresh(
            base_graph, churn_delta, measure, new_graph=new_graph, sparse=True
        )
        assert again.source == "cache"
        scratch = measure.compute(new_graph, sparse=True)
        diff = again.matrix.sparse_matrix - scratch.sparse_matrix
        assert (np.abs(diff.toarray()).max() if diff.nnz else 0.0) <= 1e-10

    def test_refresh_without_old_matrix_computes_full(self, base_graph, churn_delta):
        result = DeltaPlanner().refresh(
            base_graph, churn_delta, get_proximity("common_neighbors"), sparse=True
        )
        assert result.source == "full"

    def test_new_graph_mismatch_rejected(self, base_graph, churn_delta):
        with pytest.raises(GraphError):
            DeltaPlanner().plan(
                base_graph, churn_delta, get_proximity("jaccard"), new_graph=base_graph
            )


class TestWarmStart:
    @pytest.fixture(scope="class")
    def training(self) -> TrainingConfig:
        return TrainingConfig(
            embedding_dim=8, batch_size=16, learning_rate=0.05, negative_samples=3, epochs=3
        )

    @pytest.fixture(scope="class")
    def donor_path(self, training, tmp_path_factory):
        graph = watts_strogatz_graph(60, 4, 0.1, seed=5)
        model = get_method("se_gemb_dw").build(training, seed=0)
        model.fit(graph)
        path = tmp_path_factory.mktemp("warm") / "donor.npz"
        model.save(path)
        return path

    def test_copied_rows_and_pinned_cold_tail(self, training, donor_path):
        from repro.embedding.skipgram import SkipGramModel

        trainer = get_method("se_gemb_dw").build(training, seed=0)
        warm = trainer._resolve_warm_start(str(donor_path))
        assert warm.num_nodes == 60
        trainer._pending_warm_start = warm
        seeded = SkipGramModel(63, 8, seed=11)
        cold = SkipGramModel(63, 8, seed=11)
        trainer._apply_warm_start(seeded)
        np.testing.assert_array_equal(seeded.w_in[:60], warm.embeddings.astype(seeded.dtype))
        # new-node rows keep exactly the pinned cold initialisation
        np.testing.assert_array_equal(seeded.w_in[60:], cold.w_in[60:])
        assert trainer._last_warm_start["copied_rows"] == 60

    def test_fit_with_warm_start_records_metadata(self, training, donor_path, tmp_path):
        graph = watts_strogatz_graph(63, 4, 0.1, seed=6)
        model = get_method("se_gemb_dw").build(training, seed=1)
        model.fit(graph, warm_start=str(donor_path))
        out = tmp_path / "refit.npz"
        model.save(out)
        meta = peek_artifact(out)
        assert meta["warm_start"]["copied_rows"] == 60
        assert meta["warm_start"]["donor_nodes"] == 60

    def test_warm_start_from_fitted_estimator(self, training):
        graph = watts_strogatz_graph(40, 4, 0.1, seed=8)
        donor = get_method("se_gemb_dw").build(training, seed=0).fit(graph)
        model = get_method("se_gemb_dw").build(training, seed=1)
        model.fit(graph, warm_start=donor)
        assert model._last_warm_start["source"] == "estimator"

    def test_dimension_mismatch_rejected(self, donor_path):
        wide = TrainingConfig(
            embedding_dim=16, batch_size=16, learning_rate=0.05, negative_samples=3, epochs=3
        )
        graph = watts_strogatz_graph(40, 4, 0.1, seed=8)
        model = get_method("se_gemb_dw").build(wide, seed=0)
        with pytest.raises(ConfigurationError, match="dim"):
            model.fit(graph, warm_start=str(donor_path))

    def test_method_mismatch_warns(self, training, donor_path):
        graph = watts_strogatz_graph(40, 4, 0.1, seed=8)
        model = get_method("se_gemb_deg").build(training, seed=0)
        with pytest.warns(RuntimeWarning, match="geometries may differ"):
            model.fit(graph, warm_start=str(donor_path))

    def test_unsupported_estimator_rejected(self, donor_path, small_graph):
        from repro.baselines import DPGGAN

        baseline = DPGGAN(seed=0)
        with pytest.raises(ConfigurationError, match="warm_start"):
            baseline.fit(small_graph, warm_start=str(donor_path))

    def test_invalid_source_rejected(self, training, small_graph):
        model = get_method("se_gemb_dw").build(training, seed=0)
        with pytest.raises(ConfigurationError, match="warm_start"):
            model.fit(small_graph, warm_start=42)

    def test_warmstart_dataclass_shape_helpers(self):
        warm = WarmStart(
            embeddings=np.zeros((5, 3)),
            context_embeddings=None,
            method="m",
            dataset_fingerprint=None,
            source="test",
        )
        assert warm.num_nodes == 5
        assert warm.embedding_dim == 3


NM, RATE, DELTA = 1.1, 0.01, 1e-5


class TestPrivacyLedger:
    def test_round_trip_and_chain(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = PrivacyLedger(path)
        assert len(ledger) == 0
        assert ledger.dataset_fingerprint is None
        ledger.record_fit(
            "fp-a",
            method="m",
            noise_multiplier=NM,
            sampling_rate=RATE,
            steps=40,
            delta=DELTA,
            epsilon=ledger.epsilon_with(
                DELTA, noise_multiplier=NM, sampling_rate=RATE, steps=40
            ),
        )
        reloaded = PrivacyLedger(path)
        assert len(reloaded) == 1
        assert reloaded.head_hash == ledger.head_hash
        assert reloaded.dataset_fingerprint == "fp-a"
        assert reloaded.total_steps() == 40

    def test_sequential_refits_bit_identical_to_single_accountant(self, tmp_path):
        K, T = 4, 37
        ledger = PrivacyLedger(tmp_path / "ledger.json")
        for _ in range(K):
            acc = RdpAccountant(NM, RATE)
            acc.step(T)
            ledger.record_accountant("fp-a", acc, method="m", delta=DELTA)
        reference = RdpAccountant(NM, RATE)
        reference.step(K * T)
        expected = reference.get_privacy_spent(DELTA)
        spent = ledger.total_spent(DELTA)
        assert spent.epsilon == expected.epsilon  # exact, not approx
        assert spent.best_alpha == expected.best_alpha
        assert ledger.total_steps() == K * T
        np.testing.assert_array_equal(ledger.total_rdp(), reference.total_rdp)

    def test_lineage_chain_and_break(self, tmp_path, triangle_graph):
        ledger = PrivacyLedger(tmp_path / "ledger.json")
        delta = EdgeDelta(inserts=[(1, 3)])
        updated = apply_delta(triangle_graph, delta)
        ledger.record_fit(
            triangle_graph,
            method="m",
            noise_multiplier=NM,
            sampling_rate=RATE,
            steps=5,
            delta=DELTA,
            epsilon=0.5,
        )
        with pytest.raises(PrivacyError, match="lineage"):
            ledger.record_fit(
                updated,
                method="m",
                noise_multiplier=NM,
                sampling_rate=RATE,
                steps=5,
                delta=DELTA,
                epsilon=0.5,
            )
        entry = ledger.record_delta(triangle_graph, updated, delta)
        assert entry["delta_fingerprint"] == delta.fingerprint()
        assert entry["num_inserts"] == 1
        assert ledger.dataset_fingerprint == updated.content_fingerprint()
        ledger.record_fit(
            updated,
            method="m",
            noise_multiplier=NM,
            sampling_rate=RATE,
            steps=5,
            delta=DELTA,
            epsilon=0.5,
        )
        with pytest.raises(PrivacyError, match="lineage"):
            ledger.record_delta(triangle_graph, updated, delta)

    def test_tamper_detection(self, tmp_path):
        path = tmp_path / "ledger.json"
        ledger = PrivacyLedger(path)
        ledger.record_fit(
            "fp-a",
            method="m",
            noise_multiplier=NM,
            sampling_rate=RATE,
            steps=10,
            delta=DELTA,
            epsilon=0.4,
        )
        header, entry_line = path.read_text().splitlines()
        entry = json.loads(entry_line)
        entry["steps"] = 1
        path.write_text(
            header + "\n" + json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
        )
        with pytest.raises(PrivacyError, match="tamper|hash|chain"):
            PrivacyLedger(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "ledger.json"
        path.write_text("{not json")
        with pytest.raises(PrivacyError):
            PrivacyLedger(path)

    def test_would_exceed_and_admission(self, tmp_path):
        ledger = PrivacyLedger(tmp_path / "ledger.json")
        target = 2.0
        remaining = ledger.remaining_steps(
            target, DELTA, noise_multiplier=NM, sampling_rate=RATE
        )
        reference = RdpAccountant(NM, RATE)
        assert remaining == reference.max_steps(target, DELTA)
        assert remaining > 0
        assert not ledger.would_exceed(
            target, DELTA, noise_multiplier=NM, sampling_rate=RATE, steps=remaining
        )
        assert ledger.would_exceed(
            target, DELTA, noise_multiplier=NM, sampling_rate=RATE, steps=remaining + 1
        )
        ledger.record_fit(
            "fp",
            method="m",
            noise_multiplier=NM,
            sampling_rate=RATE,
            steps=remaining,
            delta=DELTA,
            epsilon=target,
        )
        with pytest.raises(PrivacyBudgetExhausted):
            ledger.check_admission(
                target, DELTA, noise_multiplier=NM, sampling_rate=RATE
            )

    def test_attached_accountant_refuses_reset(self, tmp_path):
        ledger = PrivacyLedger(tmp_path / "ledger.json")
        acc = RdpAccountant(NM, RATE)
        ledger.attach(acc)
        acc.step(3)
        with pytest.raises(PrivacyError, match="ledger"):
            acc.reset()

    def test_detached_reset_warns(self):
        acc = RdpAccountant(NM, RATE)
        acc.step(3)
        with pytest.warns(RuntimeWarning, match="discards"):
            acc.reset()
        assert acc.steps == 0

    def test_empty_ledger_spends_nothing(self, tmp_path):
        ledger = PrivacyLedger(tmp_path / "ledger.json")
        spent = ledger.total_spent(DELTA)
        assert spent.epsilon == 0.0
        summary = ledger.summary(DELTA)
        assert summary["entries"] == 0
        assert summary["total_steps"] == 0

    def test_summary_after_activity(self, tmp_path):
        ledger = PrivacyLedger(tmp_path / "ledger.json")
        ledger.record_fit(
            "fp-a",
            method="m",
            noise_multiplier=NM,
            sampling_rate=RATE,
            steps=12,
            delta=DELTA,
            epsilon=1.0,
        )
        ledger.record_delta("fp-a", "fp-b", "abc123")
        summary = ledger.summary()
        assert summary["fits"] == 1
        assert summary["deltas"] == 1
        assert summary["dataset_fingerprint"] == "fp-b"
        assert summary["total_steps"] == 12

    def test_mismatched_alpha_grid_rejected(self, tmp_path):
        ledger = PrivacyLedger(tmp_path / "ledger.json", alphas=[2.0, 4.0, 8.0])
        acc = RdpAccountant(NM, RATE)
        with pytest.raises(PrivacyError, match="grid"):
            ledger.attach(acc)


class TestLedgerCrashDurability:
    def test_totals_survive_sigkill(self, tmp_path):
        """Record a fit, die without cleanup, reopen: the spend is still there."""
        path = tmp_path / "ledger.json"
        child = textwrap.dedent(
            f"""
            import os, signal
            from repro import PrivacyLedger
            from repro.privacy import RdpAccountant
            ledger = PrivacyLedger({str(path)!r})
            acc = RdpAccountant({NM}, {RATE})
            acc.step(37)
            ledger.record_accountant("fp-a", acc, method="m", delta={DELTA})
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        survivor = PrivacyLedger(path)
        assert survivor.total_steps() == 37
        acc = RdpAccountant(NM, RATE)
        acc.step(37)
        survivor.record_accountant("fp-a", acc, method="m", delta=DELTA)
        reference = RdpAccountant(NM, RATE)
        reference.step(74)
        assert (
            survivor.total_spent(DELTA).epsilon
            == reference.get_privacy_spent(DELTA).epsilon
        )


class TestLedgerEmbedderIntegration:
    @pytest.fixture()
    def private_model(self, fast_training_config, fast_privacy_config):
        return get_method("se_privgemb_dw").build(
            fast_training_config, fast_privacy_config, seed=0
        )

    def test_private_fit_records_into_ledger(
        self, private_model, small_graph, tmp_path
    ):
        ledger = PrivacyLedger(tmp_path / "ledger.json")
        private_model.fit(small_graph, ledger=ledger)
        entries = ledger.entries
        assert len(entries) == 1
        assert entries[0]["kind"] == "fit"
        assert entries[0]["dataset_fingerprint"] == small_graph.content_fingerprint()
        assert entries[0]["steps"] == private_model.accountant.steps
        spent = private_model.result_.privacy_spent
        assert entries[0]["epsilon"] == spent.epsilon

    def test_ledger_head_gate(self, private_model, small_graph, tmp_path):
        ledger = PrivacyLedger(tmp_path / "ledger.json")
        ledger.record_fit(
            "someone-else",
            method="m",
            noise_multiplier=NM,
            sampling_rate=RATE,
            steps=1,
            delta=DELTA,
            epsilon=0.1,
        )
        with pytest.raises(PrivacyError, match="lineage"):
            private_model.fit(small_graph, ledger=ledger)

    def test_nonprivate_model_rejects_ledger(
        self, fast_training_config, small_graph, tmp_path
    ):
        model = get_method("se_gemb_dw").build(fast_training_config, seed=0)
        with pytest.raises(ConfigurationError, match="ledger"):
            model.fit(small_graph, ledger=PrivacyLedger(tmp_path / "ledger.json"))


class TestPeekArtifact:
    def test_surfaces_privacy_and_fingerprint(
        self, fast_training_config, fast_privacy_config, small_graph, tmp_path
    ):
        model = get_method("se_privgemb_dw").build(
            fast_training_config, fast_privacy_config, seed=0
        )
        model.fit(small_graph)
        path = tmp_path / "model.npz"
        model.save(path)
        meta = peek_artifact(path)
        assert meta["privacy_spent"] is not None
        assert meta["privacy_spent"]["epsilon"] > 0
        assert meta["dataset_fingerprint"] == small_graph.content_fingerprint()

    def test_nonprivate_artifact_has_null_spend(
        self, fast_training_config, small_graph, tmp_path
    ):
        model = get_method("se_gemb_dw").build(fast_training_config, seed=0)
        model.fit(small_graph)
        path = tmp_path / "model.npz"
        model.save(path)
        meta = peek_artifact(path)
        assert meta["privacy_spent"] is None
        assert meta["dataset_fingerprint"] == small_graph.content_fingerprint()


class TestStreamingCli:
    def _write_graph(self, tmp_path):
        from repro.graph.io import write_edge_list

        graph = watts_strogatz_graph(30, 4, 0.1, seed=3)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        return graph, path

    def test_delta_subcommand(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        graph, path = self._write_graph(tmp_path)
        victim = f"{int(graph.edges[0][0])}-{int(graph.edges[0][1])}"
        out = tmp_path / "updated.txt"
        code = main(
            [
                "delta",
                str(path),
                "--delete",
                victim,
                "--insert",
                "0-29",
                "--grow-to",
                "31",
                "--insert",
                "5-30",
                "--out",
                str(out),
                "--plan",
                "common_neighbors",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "delta" in captured
        assert out.exists()

    def test_delta_with_ledger_and_ledger_subcommand(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        graph, path = self._write_graph(tmp_path)
        existing = {(int(u), int(v)) for u, v in graph.edges.tolist()}
        u, v = next(
            (a, b)
            for a in range(graph.num_nodes)
            for b in range(a + 1, graph.num_nodes)
            if (a, b) not in existing
        )
        ledger_path = tmp_path / "ledger.json"
        ledger = PrivacyLedger(ledger_path)
        ledger.record_fit(
            graph,
            method="m",
            noise_multiplier=NM,
            sampling_rate=RATE,
            steps=10,
            delta=DELTA,
            epsilon=0.9,
        )
        code = main(
            ["delta", str(path), "--insert", f"{u}-{v}", "--ledger", str(ledger_path)]
        )
        assert code == 0
        assert len(PrivacyLedger(ledger_path)) == 2
        code = main(["ledger", str(ledger_path), "--entries"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "fit" in captured

    def test_bad_edge_pair_rejected(self, tmp_path):
        from repro.experiments.__main__ import main

        _, path = self._write_graph(tmp_path)
        with pytest.raises(ConfigurationError):
            main(["delta", str(path), "--insert", "nonsense"])

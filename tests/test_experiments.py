"""Tests for the experiment harness: settings, result tables, runner, sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConfigurationError, PrivacyConfig, TrainingConfig
from repro.experiments import (
    ExperimentSettings,
    PAPER_EPSILONS,
    PAPER_METHODS,
    ResultTable,
    embed_with_method,
    evaluate_link_prediction,
    evaluate_structural_equivalence,
    figure_link_prediction,
    figure_structural_equivalence,
    table_batch_size,
    table_perturbation,
)
from repro.experiments.runner import is_private_method
from repro.graph import load_dataset
from repro.models import available_methods

FAST_TRAINING = TrainingConfig(
    embedding_dim=8, batch_size=24, learning_rate=0.1, negative_samples=3, epochs=6
)
FAST_PRIVACY = PrivacyConfig(epsilon=2.0)
SMOKE = ExperimentSettings.smoke_test()


class TestExperimentSettings:
    def test_paper_constants(self):
        assert PAPER_EPSILONS == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
        assert len(PAPER_METHODS) == 8

    def test_defaults_are_valid(self):
        settings = ExperimentSettings()
        assert settings.repeats >= 1
        assert all(eps > 0 for eps in settings.epsilons)

    def test_paper_scale_matches_reported_hyperparameters(self):
        settings = ExperimentSettings.paper_scale()
        assert settings.training.embedding_dim == 128
        assert settings.training.batch_size == 128
        assert settings.repeats == 10
        assert len(settings.datasets) == 6

    def test_with_updates(self):
        settings = ExperimentSettings().with_updates(repeats=5)
        assert settings.repeats == 5

    def test_invalid_settings_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(datasets=())
        with pytest.raises(ConfigurationError):
            ExperimentSettings(repeats=0)
        with pytest.raises(ConfigurationError):
            ExperimentSettings(epsilons=(0.0,))


    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("datasets", ()),
            ("repeats", 0),
            ("repeats", -3),
            ("dataset_scale", 0.0),
            ("dataset_scale", -0.5),
            ("epsilons", ()),
            ("epsilons", (0.0,)),
            ("epsilons", (1.0, -2.0)),
        ],
    )
    def test_with_updates_validates_the_named_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SMOKE.with_updates(**{field: value})

    def test_settings_carry_no_training_worker_count(self):
        # sweeps fan cells out over processes; each cell trains serially
        with pytest.raises(TypeError, match="train_workers"):
            ExperimentSettings(train_workers=2)
        with pytest.raises(TypeError, match="train_workers"):
            SMOKE.with_updates(train_workers=2)


class TestResultTable:
    def test_add_and_render(self):
        table = ResultTable("demo")
        table.add_row({"dataset": "x", "value": 0.5})
        table.add_row({"dataset": "y", "value": 0.25, "extra": 1})
        text = table.to_text()
        assert "demo" in text
        assert "0.5000" in text
        assert len(table) == 2
        assert table.columns() == ["dataset", "value", "extra"]

    def test_filter_and_best_row(self):
        table = ResultTable("demo")
        table.add_row({"method": "a", "score": 0.3})
        table.add_row({"method": "b", "score": 0.7})
        assert len(table.filter(method="a")) == 1
        assert table.best_row("score")["method"] == "b"
        assert table.best_row("score", maximize=False)["method"] == "a"

    def test_best_row_missing_metric_raises(self):
        table = ResultTable("demo", rows=[{"a": 1}])
        with pytest.raises(KeyError):
            table.best_row("missing")

    def test_column_extraction(self):
        table = ResultTable("demo", rows=[{"a": 1, "b": 2}, {"a": 3}])
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2, None]

    def test_empty_table_renders(self):
        assert "(empty)" in ResultTable("empty").to_text()

    def test_rows_of_empty_dicts_render_as_empty(self):
        # rows exist but no columns were ever seen
        table = ResultTable("demo", rows=[{}, {}])
        assert len(table) == 2
        assert "(empty)" in table.to_text()

    def test_ragged_rows_render_with_blanks(self):
        table = ResultTable("demo")
        table.add_row({"a": 1.0})
        table.add_row({"b": "x"})
        text = table.to_text()
        lines = text.splitlines()
        assert lines[1].split() == ["a", "b"]
        # each body line has both cells (one blank-padded)
        assert "1.0000" in text and "x" in text

    def test_filter_with_float_criteria(self):
        table = ResultTable("demo")
        table.add_row({"epsilon": 0.5, "score": 0.1})
        table.add_row({"epsilon": 3.5, "score": 0.9})
        table.add_row({"epsilon": 3.5, "score": 0.7})
        assert len(table.filter(epsilon=3.5)) == 2
        assert len(table.filter(epsilon=0.5, score=0.1)) == 1
        assert len(table.filter(epsilon=1.0)) == 0

    def test_filter_missing_column_matches_nothing(self):
        table = ResultTable("demo", rows=[{"a": 1}])
        assert len(table.filter(b=1)) == 0

    def test_filter_preserves_title_and_copies_rows(self):
        table = ResultTable("demo", rows=[{"a": 1}])
        filtered = table.filter(a=1)
        assert filtered.title == "demo"
        filtered.rows[0]["a"] = 2
        assert table.rows[0]["a"] == 1

    def test_best_row_with_float_metric_and_ties(self):
        table = ResultTable("demo")
        table.add_row({"m": "first", "score": 0.7})
        table.add_row({"m": "second", "score": 0.7})
        table.add_row({"m": "third", "score": 0.3})
        assert table.best_row("score")["m"] == "first"  # stable for ties
        assert table.best_row("score", maximize=False)["m"] == "third"

    def test_best_row_ignores_rows_missing_the_metric(self):
        table = ResultTable("demo", rows=[{"other": 1}, {"score": 0.2}])
        assert table.best_row("score")["score"] == 0.2

    def test_best_row_on_empty_table_raises(self):
        with pytest.raises(KeyError):
            ResultTable("demo").best_row("score")

    def test_to_text_float_format_override(self):
        table = ResultTable("demo", rows=[{"v": 0.123456}])
        assert "0.12" in table.to_text(float_format="{:.2f}")
        assert "0.123456" not in table.to_text(float_format="{:.2f}")


class TestRepeatSeeding:
    """Pin the SeedSequence-based repeat seeding of the evaluation helpers."""

    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("smallworld", num_nodes=60, seed=2)

    def _capture_strucequ(self, monkeypatch, graph, seed, repeats):
        from repro.experiments import runner as runner_module

        train_draws, eval_draws = [], []

        def fake_embed(method, graph, training, privacy, seed=None, **kwargs):
            train_draws.append(int(seed.integers(0, 2**62)))
            return np.zeros((graph.num_nodes, 4))

        def fake_score(graph, embeddings, seed=None):
            eval_draws.append(int(seed.integers(0, 2**62)))
            return 0.5

        monkeypatch.setattr(runner_module, "embed_with_method", fake_embed)
        monkeypatch.setattr(runner_module, "structural_equivalence_score", fake_score)
        evaluate_structural_equivalence(
            "gap", graph, FAST_TRAINING, FAST_PRIVACY, repeats=repeats, seed=seed
        )
        return train_draws, eval_draws

    def test_adjacent_base_seeds_do_not_collide(self, monkeypatch, graph):
        # the old seed+repeat convention made (seed=0, repeat=1) identical
        # to (seed=1, repeat=0); spawned streams must all be distinct
        draws_0, _ = self._capture_strucequ(monkeypatch, graph, seed=0, repeats=3)
        draws_1, _ = self._capture_strucequ(monkeypatch, graph, seed=1, repeats=3)
        assert len(set(draws_0) | set(draws_1)) == 6

    def test_evaluation_sample_fixed_across_repeats(self, monkeypatch, graph):
        _, eval_draws = self._capture_strucequ(monkeypatch, graph, seed=7, repeats=4)
        assert len(eval_draws) == 4
        assert len(set(eval_draws)) == 1  # same stream, fresh generator each time

    def test_repeats_within_one_cell_are_distinct(self, monkeypatch, graph):
        draws, _ = self._capture_strucequ(monkeypatch, graph, seed=0, repeats=4)
        assert len(set(draws)) == 4

    def test_seeding_is_deterministic(self, monkeypatch, graph):
        a = self._capture_strucequ(monkeypatch, graph, seed=5, repeats=2)
        b = self._capture_strucequ(monkeypatch, graph, seed=5, repeats=2)
        assert a == b

    def test_accepts_seed_sequence(self, graph):
        seq = np.random.SeedSequence(42)
        mean_a, _ = evaluate_structural_equivalence(
            "se_privgemb_deg", graph, FAST_TRAINING, FAST_PRIVACY, repeats=1,
            seed=np.random.SeedSequence(42),
        )
        mean_b, _ = evaluate_structural_equivalence(
            "se_privgemb_deg", graph, FAST_TRAINING, FAST_PRIVACY, repeats=1, seed=seq
        )
        assert mean_a == mean_b

    def test_link_prediction_split_and_training_streams_differ(self, monkeypatch, graph):
        from repro.experiments import runner as runner_module

        split_draws, embed_draws = [], []
        real_split = runner_module.make_link_prediction_split

        def fake_split(graph, seed=None):
            split_draws.append(int(seed.integers(0, 2**62)))
            return real_split(graph, seed=seed)

        def fake_embed(method, graph, training, privacy, seed=None, **kwargs):
            embed_draws.append(int(seed.integers(0, 2**62)))
            return np.zeros((graph.num_nodes, 4))

        monkeypatch.setattr(runner_module, "make_link_prediction_split", fake_split)
        monkeypatch.setattr(runner_module, "embed_with_method", fake_embed)
        evaluate_link_prediction(
            "gap", graph, FAST_TRAINING, FAST_PRIVACY, repeats=2, seed=0
        )
        # the old convention fed the identical integer seed to both the
        # split and the trainer; the spawned streams must all differ
        assert len(set(split_draws) | set(embed_draws)) == 4


class TestRunner:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("smallworld", num_nodes=60, seed=2)

    def test_method_name_registry(self):
        assert set(PAPER_METHODS) <= set(available_methods())
        assert is_private_method("se_privgemb_dw")
        assert not is_private_method("se_gemb_deg")

    @pytest.mark.parametrize("method", PAPER_METHODS)
    def test_every_method_produces_embeddings(self, method, graph):
        embeddings = embed_with_method(method, graph, FAST_TRAINING, FAST_PRIVACY, seed=0)
        assert embeddings.shape == (graph.num_nodes, FAST_TRAINING.embedding_dim)
        assert np.all(np.isfinite(embeddings))

    def test_unknown_method_raises(self, graph):
        with pytest.raises(ConfigurationError):
            embed_with_method("unknown", graph, FAST_TRAINING, FAST_PRIVACY)

    def test_evaluate_structural_equivalence_returns_mean_std(self, graph):
        mean, std = evaluate_structural_equivalence(
            "se_privgemb_deg", graph, FAST_TRAINING, FAST_PRIVACY, repeats=2, seed=0
        )
        assert -1.0 <= mean <= 1.0
        assert std >= 0.0

    def test_evaluate_link_prediction_returns_valid_auc(self, graph):
        mean, std = evaluate_link_prediction(
            "se_gemb_deg", graph, FAST_TRAINING, FAST_PRIVACY, repeats=2, seed=0
        )
        assert 0.0 <= mean <= 1.0
        assert std >= 0.0


class TestSweeps:
    def test_table_batch_size_rows(self):
        table = table_batch_size(SMOKE, batch_sizes=(16, 32))
        # datasets × variants × values
        assert len(table) == len(SMOKE.datasets) * 2 * 2
        assert set(table.column("batch_size")) == {16, 32}
        for value in table.column("strucequ_mean"):
            assert -1.0 <= value <= 1.0

    def test_table_perturbation_has_both_strategies(self):
        table = table_perturbation(SMOKE, epsilons=(3.5,))
        assert len(table) == len(SMOKE.datasets) * 2
        for row in table.rows:
            assert "naive_mean" in row and "nonzero_mean" in row

    def test_figure_structural_equivalence_series(self):
        table = figure_structural_equivalence(
            SMOKE, methods=("se_privgemb_deg", "se_gemb_deg", "gap")
        )
        assert len(table) == len(SMOKE.datasets) * 3 * len(SMOKE.epsilons)
        non_private = table.filter(method="se_gemb_deg")
        values = non_private.column("strucequ_mean")
        # non-private methods do not depend on ε: single value replicated
        assert len(set(round(v, 12) for v in values)) == 1

    def test_figure_computes_each_non_private_cell_once(self, monkeypatch):
        from repro.experiments import orchestrator

        runs: list[tuple[str, str]] = []
        run_strucequ = orchestrator._KIND_RUNNERS["strucequ"]

        def counting(spec):
            runs.append((spec.dataset, spec.method))
            return run_strucequ(spec)

        monkeypatch.setitem(orchestrator._KIND_RUNNERS, "strucequ", counting)
        settings = SMOKE.with_updates(datasets=("smallworld", "chameleon"))
        methods = ("se_gemb_deg", "se_privgemb_deg")
        table = figure_structural_equivalence(settings, methods=methods)

        epsilons = len(settings.epsilons)
        assert len(table) == 2 * len(methods) * epsilons
        for dataset_name in settings.datasets:
            assert runs.count((dataset_name, "se_gemb_deg")) == 1
            assert runs.count((dataset_name, "se_privgemb_deg")) == epsilons
            rows = table.filter(dataset=dataset_name, method="se_gemb_deg").rows
            assert [row["epsilon"] for row in rows] == list(settings.epsilons)
            assert len({(row["strucequ_mean"], row["strucequ_std"]) for row in rows}) == 1
        report = table.run_report
        assert (report.total, report.computed) == (len(runs), len(runs)) == (6, 6)

    def test_figure_link_prediction_series(self):
        table = figure_link_prediction(SMOKE, methods=("se_privgemb_deg", "dpgvae"))
        assert len(table) == len(SMOKE.datasets) * 2 * len(SMOKE.epsilons)
        for value in table.column("auc_mean"):
            assert 0.0 <= value <= 1.0

"""Tests for the ablation experiment module."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSettings, evaluate_structural_equivalence
from repro.experiments.ablations import (
    ablation_gradient_normalization,
    ablation_iterate_averaging,
    ablation_negative_sampling,
)
from repro.experiments.orchestrator import (
    cell_seed_sequence,
    dataset_graph,
    evaluation_seed_sequence,
    specs_for_settings,
)

SMOKE = ExperimentSettings.smoke_test()


class TestAblations:
    def test_iterate_averaging_rows(self):
        table = ablation_iterate_averaging(SMOKE)
        assert len(table) == len(SMOKE.datasets) * 2
        assert set(table.column("iterate_averaging")) == {True, False}
        for value in table.column("strucequ_mean"):
            assert -1.0 <= value <= 1.0

    def test_gradient_normalization_rows(self):
        table = ablation_gradient_normalization(SMOKE)
        assert len(table) == len(SMOKE.datasets) * 2
        assert set(table.column("gradient_normalization")) == {"per_row", "batch"}

    def test_negative_sampling_rows(self):
        table = ablation_negative_sampling(SMOKE)
        assert len(table) == len(SMOKE.datasets) * 2
        assert set(table.column("negative_sampling")) == {"proximity", "unigram"}

    def test_tables_render_to_text(self):
        table = ablation_iterate_averaging(SMOKE)
        text = table.to_text()
        assert "Ablation" in text
        assert "strucequ_mean" in text


def _evaluate_cell(method, dataset_name, keyword, value, **overrides):
    """``evaluate_structural_equivalence`` on the seeds of one ablation cell."""
    spec = specs_for_settings(
        "strucequ", method, dataset_name, SMOKE, options={keyword: value}
    )
    return evaluate_structural_equivalence(
        method,
        dataset_graph(spec),
        SMOKE.training,
        SMOKE.privacy,
        repeats=SMOKE.repeats,
        seed=cell_seed_sequence(spec),
        evaluation_seed=evaluation_seed_sequence(spec),
        **overrides,
    )


class TestAblationCells:
    """An ablation cell is a ``strucequ`` cell whose option is a build override."""

    @pytest.mark.parametrize(
        ("ablation", "method", "keyword", "default"),
        [
            (ablation_iterate_averaging, "se_privgemb_dw", "iterate_averaging", True),
            (
                ablation_gradient_normalization,
                "se_privgemb_dw",
                "gradient_normalization",
                "per_row",
            ),
            (ablation_negative_sampling, "se_gemb_dw", "negative_sampling", "proximity"),
        ],
        ids=["iterate_averaging", "gradient_normalization", "negative_sampling"],
    )
    def test_row_equals_evaluate_structural_equivalence(
        self, ablation, method, keyword, default
    ):
        table = ablation(SMOKE)
        for row in table.rows:
            value = row[keyword]
            mean, std = _evaluate_cell(
                method, row["dataset"], keyword, value, **{keyword: value}
            )
            assert (row["strucequ_mean"], row["strucequ_std"]) == (mean, std)
            if value != default:
                # the same seeds without the override train another model:
                # the option reaches the trainer
                unchanged, _ = _evaluate_cell(method, row["dataset"], keyword, value)
                assert unchanged != mean

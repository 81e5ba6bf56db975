"""Ablation benches for this reproduction's own design choices.

Each bench prints its table; the claims record is ROADMAP.md item 4.
"""

from __future__ import annotations

from repro.experiments.ablations import (
    ablation_gradient_normalization,
    ablation_iterate_averaging,
    ablation_negative_sampling,
)


def test_ablation_iterate_averaging(benchmark, quick_bench_settings):
    """Averaged iterates versus the last private iterate."""
    table = benchmark.pedantic(
        ablation_iterate_averaging,
        kwargs={"settings": quick_bench_settings},
        rounds=1,
        iterations=1,
    )
    print()
    print(table.to_text())
    assert len(table) == len(quick_bench_settings.datasets) * 2


def test_ablation_gradient_normalization(benchmark, quick_bench_settings):
    """Per-row normalisation versus the literal Eq. (9) batch averaging."""
    table = benchmark.pedantic(
        ablation_gradient_normalization,
        kwargs={"settings": quick_bench_settings},
        rounds=1,
        iterations=1,
    )
    print()
    print(table.to_text())
    assert len(table) == len(quick_bench_settings.datasets) * 2


def test_ablation_negative_sampling(benchmark, quick_bench_settings):
    """Theorem-3 negative sampling versus the unigram sampler (non-private)."""
    table = benchmark.pedantic(
        ablation_negative_sampling,
        kwargs={"settings": quick_bench_settings},
        rounds=1,
        iterations=1,
    )
    print()
    print(table.to_text())
    assert len(table) == len(quick_bench_settings.datasets) * 2
    for value in table.column("strucequ_mean"):
        assert -1.0 <= value <= 1.0

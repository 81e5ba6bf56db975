"""Table VI: naive (Eq. 6) versus non-zero (Eq. 9) perturbation.

The headline ablation of the paper: across datasets and privacy budgets, the
non-zero strategy must dominate the naive strategy by a wide margin.
"""

from __future__ import annotations

from repro.experiments import table_perturbation


def test_table6_perturbation_strategies(benchmark, quick_bench_settings, record_table):
    """Regenerate Table VI and check the non-zero strategy wins on average."""
    table = benchmark.pedantic(
        table_perturbation,
        kwargs={"settings": quick_bench_settings, "epsilons": (0.5, 2.0, 3.5)},
        rounds=1,
        iterations=1,
    )
    record_table(table, quick_bench_settings)
    print()
    print(table.to_text())
    assert len(table) == len(quick_bench_settings.datasets) * 2 * 3

    naive = table.column("naive_mean")
    nonzero = table.column("nonzero_mean")
    # Paper-shape check: the non-zero strategy preserves far more structure on
    # average (individual cells can be noisy at this reduced scale).
    assert sum(nonzero) / len(nonzero) > sum(naive) / len(naive)

"""Table III: StrucEqu versus learning rate η (SE-PrivGEmb DW / Deg, ε = 3.5)."""

from __future__ import annotations

from repro.experiments import table_learning_rate


def test_table3_learning_rate(benchmark, quick_bench_settings, record_table):
    """Regenerate Table III and print the resulting rows."""
    table = benchmark.pedantic(
        table_learning_rate,
        kwargs={"settings": quick_bench_settings, "learning_rates": (0.01, 0.1, 0.3)},
        rounds=1,
        iterations=1,
    )
    record_table(table, quick_bench_settings)
    print()
    print(table.to_text())
    assert len(table) == len(quick_bench_settings.datasets) * 2 * 3
    for value in table.column("strucequ_mean"):
        assert -1.0 <= value <= 1.0

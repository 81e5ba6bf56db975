"""Table II: StrucEqu versus batch size B (SE-PrivGEmb DW / Deg, ε = 3.5)."""

from __future__ import annotations

from repro.experiments import table_batch_size


def test_table2_batch_size(benchmark, quick_bench_settings, record_table):
    """Regenerate Table II and print the resulting rows."""
    table = benchmark.pedantic(
        table_batch_size,
        kwargs={"settings": quick_bench_settings, "batch_sizes": (32, 64, 128)},
        rounds=1,
        iterations=1,
    )
    record_table(table, quick_bench_settings)
    print()
    print(table.to_text())
    assert len(table) == len(quick_bench_settings.datasets) * 2 * 3
    for value in table.column("strucequ_mean"):
        assert -1.0 <= value <= 1.0

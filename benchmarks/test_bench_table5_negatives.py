"""Table V: StrucEqu versus negative sampling number k (ε = 3.5)."""

from __future__ import annotations

from repro.experiments import table_negative_samples


def test_table5_negative_samples(benchmark, quick_bench_settings, record_table):
    """Regenerate Table V and print the resulting rows."""
    table = benchmark.pedantic(
        table_negative_samples,
        kwargs={"settings": quick_bench_settings, "negative_samples": (1, 3, 5, 7)},
        rounds=1,
        iterations=1,
    )
    record_table(table, quick_bench_settings)
    print()
    print(table.to_text())
    assert len(table) == len(quick_bench_settings.datasets) * 2 * 4
    for value in table.column("strucequ_mean"):
        assert -1.0 <= value <= 1.0

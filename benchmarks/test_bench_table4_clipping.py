"""Table IV: StrucEqu versus gradient clipping threshold C (ε = 3.5)."""

from __future__ import annotations

from repro.experiments import table_clipping


def test_table4_clipping_threshold(benchmark, quick_bench_settings, record_table):
    """Regenerate Table IV and print the resulting rows."""
    table = benchmark.pedantic(
        table_clipping,
        kwargs={"settings": quick_bench_settings, "thresholds": (1.0, 2.0, 4.0)},
        rounds=1,
        iterations=1,
    )
    record_table(table, quick_bench_settings)
    print()
    print(table.to_text())
    assert len(table) == len(quick_bench_settings.datasets) * 2 * 3
    for value in table.column("strucequ_mean"):
        assert -1.0 <= value <= 1.0

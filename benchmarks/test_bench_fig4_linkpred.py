"""Figure 4: link-prediction AUC versus privacy budget ε."""

from __future__ import annotations

from repro.experiments import figure_link_prediction

METHODS = ("dpgvae", "gap", "se_gemb_dw", "se_privgemb_dw")


def test_figure4_link_prediction(benchmark, bench_settings, record_table):
    """Regenerate the Figure-4 series and check the non-private upper bound."""
    settings = bench_settings.with_updates(
        datasets=("chameleon",), epsilons=(0.5, 2.0, 3.5)
    )
    table = benchmark.pedantic(
        figure_link_prediction,
        kwargs={"settings": settings, "methods": METHODS},
        rounds=1,
        iterations=1,
    )
    record_table(table, settings)
    print()
    print(table.to_text())
    assert len(table) == len(settings.datasets) * len(METHODS) * len(settings.epsilons)

    def mean_over(method):
        values = table.filter(method=method).column("auc_mean")
        return sum(values) / len(values)

    # Paper-shape check: the non-private SE-GEmb upper-bounds every private
    # method on AUC (Figure 4), and all AUC values are valid probabilities.
    for method in METHODS:
        assert 0.0 <= mean_over(method) <= 1.0
    assert mean_over("se_gemb_dw") >= mean_over("se_privgemb_dw") - 0.02

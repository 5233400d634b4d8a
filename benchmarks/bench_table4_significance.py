"""Table 4 — Wilcoxon significance tests of ONES against each baseline."""

from repro.analysis.reporting import format_table
from repro.analysis.stats import significance_table

from benchmarks._shared import main_comparison, write_report


def test_table4_wilcoxon(benchmark):
    results = main_comparison()
    ones = results["ONES"]
    baselines = [r for name, r in results.items() if name != "ONES"]

    table = benchmark(significance_table, ones, baselines)

    rows = [report.as_row() for report in table.values()]
    write_report(
        "table4_significance",
        "Table 4: Wilcoxon significance tests of per-job JCT (ONES vs baselines)\n"
        + format_table(rows)
        + "\nInterpretation: two-sided p << 0.05 rejects equivalence; the one-sided"
        "\n'negative' p close to 1 accepts that ONES's JCTs are smaller.",
    )

    for name, report in table.items():
        # Same pattern as the paper's Table 4: equivalence rejected and the
        # one-sided negative test strongly in ONES's favour.
        assert report.p_two_sided < 0.05, name
        assert report.p_one_sided_greater > 0.95, name
        assert report.ours_is_smaller, name

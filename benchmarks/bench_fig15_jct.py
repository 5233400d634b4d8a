"""Figure 15 — the main comparison: JCT, execution time and queuing time.

Runs the shared Table-2 trace under ONES, DRL, Tiresias and Optimus on
the same simulated cluster and reports, per scheduler:

* average job completion time (Fig. 15a),
* average execution time (Fig. 15b),
* average queuing time (Fig. 15c),
* box-plot style distribution summaries (Fig. 15d-f),
* cumulative-frequency checkpoints (Fig. 15g-i),
* the fraction of jobs completed within 200 s (§4.2).
"""

from repro.analysis.metrics import (
    compare_results,
    completion_fraction_within,
    improvement_over,
    mean_metric,
)
from repro.analysis.reporting import ascii_bar_chart, ascii_cdf, format_table

from benchmarks._shared import main_comparison, write_report


def _distribution_rows(summaries):
    rows = []
    for name, summary in summaries.items():
        stats = summary.stats
        rows.append(
            {
                "scheduler": name,
                "mean": stats.mean,
                "p25": stats.p25,
                "median": stats.median,
                "p75": stats.p75,
                "max": stats.maximum,
            }
        )
    return rows


def test_fig15_main_comparison(benchmark):
    by_name = benchmark.pedantic(main_comparison, rounds=1, iterations=1)
    results = list(by_name.values())

    def averages(metric):
        return {name: mean_metric(result, metric) for name, result in by_name.items()}

    sections = []
    for metric, title in [
        ("jct", "Figure 15a: average completion time (s)"),
        ("execution_time", "Figure 15b: average execution time (s)"),
        ("queuing_time", "Figure 15c: average queuing time (s)"),
    ]:
        sections.append(title)
        sections.append(ascii_bar_chart(averages(metric), unit="s"))
        summaries = compare_results(results, metric)
        sections.append("distributions (Fig. 15d-f):")
        sections.append(format_table(_distribution_rows(summaries)))
        curves = {name: s.cdf(log_space=True) for name, s in summaries.items()}
        thresholds = [50, 100, 200, 500, 1000, 2000, 5000]
        sections.append("cumulative frequency (Fig. 15g-i):")
        sections.append(ascii_cdf(curves, thresholds, label=f"{metric} <= (s)"))
        sections.append("")

    fractions = completion_fraction_within(results, 200.0)
    sections.append("Fraction of jobs completed within 200 s (paper: ONES 86%, baselines 60-80%):")
    sections.append(ascii_bar_chart({k: 100 * v for k, v in fractions.items()}, unit="%"))

    improvements = {
        name: improvement_over(by_name["ONES"], result)
        for name, result in by_name.items()
        if name != "ONES"
    }
    sections.append("")
    sections.append("ONES average-JCT reduction vs baselines "
                    "(paper: 26.9% DRL, 45.6% Tiresias, 41.7% Optimus):")
    for name, value in improvements.items():
        sections.append(f"  vs {name:10s}: {100 * value:5.1f}%")

    write_report("fig15_main_comparison", "\n".join(sections))

    jct_avg = averages("jct")
    # Headline shape: ONES achieves the smallest average JCT, with a
    # meaningful (>15%) margin over every baseline.
    assert jct_avg["ONES"] == min(jct_avg.values())
    for name, value in improvements.items():
        assert value > 0.15, (name, value)
    # ONES also wins on execution time (elastic batch scaling trains faster).
    exec_avg = averages("execution_time")
    assert exec_avg["ONES"] == min(exec_avg.values())
    # Every scheduler completed the whole trace.
    for result in results:
        assert not result.incomplete

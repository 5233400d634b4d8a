"""Figure 17 — average JCT as the cluster grows (16 → 64 GPUs)."""

from repro.analysis.metrics import mean_metric
from repro.analysis.reporting import ascii_series

from benchmarks._shared import scalability_sweep, write_report


def test_fig17_scalability(benchmark):
    sweep = benchmark.pedantic(scalability_sweep, rounds=1, iterations=1)
    capacities = sorted(sweep)
    series = {}
    for capacity in capacities:
        for name, result in sweep[capacity].items():
            series.setdefault(name, []).append(round(mean_metric(result, "jct"), 1))
    write_report(
        "fig17_scalability",
        "Figure 17: average JCT (s) vs cluster capacity\n"
        + ascii_series(capacities, series, x_label="# GPUs"),
    )
    # Shape: every scheduler's average JCT decreases as GPUs are added,
    # and ONES stays the best at every capacity.
    for name, values in series.items():
        assert values[-1] < values[0], name
    for capacity in capacities:
        averages = {name: mean_metric(r, "jct") for name, r in sweep[capacity].items()}
        assert averages["ONES"] == min(averages.values()), capacity

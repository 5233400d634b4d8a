"""Figure 18 — JCT of each baseline relative to ONES across cluster capacities."""

from repro.analysis.metrics import relative_jct
from repro.analysis.reporting import ascii_series

from benchmarks._shared import scalability_sweep, write_report


def _relative_series(sweep):
    capacities = sorted(sweep)
    series = {}
    for capacity in capacities:
        for name, value in relative_jct(sweep[capacity], "ONES").items():
            series.setdefault(name, []).append(round(value, 2))
    return capacities, series


def test_fig18_relative_jct(benchmark):
    sweep = scalability_sweep()
    capacities, series = benchmark(_relative_series, sweep)
    write_report(
        "fig18_relative_jct",
        "Figure 18: average JCT normalised to ONES (ONES = 1.0)\n"
        + ascii_series(capacities, series, x_label="# GPUs")
        + "\n(paper at 64 GPUs: DRL 1.37, Tiresias 1.84, Optimus 1.72)",
    )
    # ONES is the reference and every baseline is above 1 at every capacity.
    assert all(v == 1.0 for v in series["ONES"])
    for name, values in series.items():
        if name == "ONES":
            continue
        assert all(v > 1.0 for v in values), name
    # At the largest capacity the baselines remain >= 15% worse than ONES.
    largest = capacities[-1]
    rel = relative_jct(sweep[largest], "ONES")
    for name, value in rel.items():
        if name != "ONES":
            assert value > 1.15, (name, value)

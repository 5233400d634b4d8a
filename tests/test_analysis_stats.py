"""Tests for repro.analysis.stats (Table 4 significance tests)."""

import numpy as np
import pytest

from repro.analysis.stats import significance_table, wilcoxon_comparison
from repro.sim.simulator import SimulationResult


def _result(name, jcts):
    completed = {
        f"job-{i:02d}": {
            "jct": float(j),
            "execution_time": float(j) * 0.8,
            "queuing_time": float(j) * 0.2,
        }
        for i, j in enumerate(jcts)
    }
    return SimulationResult(
        scheduler_name=name,
        num_gpus=16,
        completed=completed,
        incomplete=[],
        makespan=float(max(jcts)),
        gpu_time_busy=1.0,
        gpu_time_total=2.0,
        num_reconfigurations=0,
        events_processed=1,
    )


@pytest.fixture
def clearly_better():
    rng = np.random.default_rng(0)
    base = rng.uniform(100, 1000, size=40)
    ours = _result("ONES", base * 0.6)
    theirs = _result("Tiresias", base)
    return ours, theirs


class TestWilcoxon:
    def test_detects_clear_improvement(self, clearly_better):
        ours, theirs = clearly_better
        report = wilcoxon_comparison(ours, theirs)
        # Table-4 pattern: tiny two-sided p, 'less' strongly supported,
        # 'greater' (the one-sided negative test) near 1.
        assert report.p_two_sided < 0.05
        assert report.p_one_sided_less < 0.05
        assert report.p_one_sided_greater > 0.95
        assert report.p_two_sided < 0.05
        assert report.ours_is_smaller
        assert report.median_difference < 0

    def test_identical_results_are_inconclusive(self):
        a = _result("A", [100, 200, 300])
        b = _result("B", [100, 200, 300])
        report = wilcoxon_comparison(a, b)
        assert report.p_two_sided == 1.0
        assert not report.p_two_sided < 0.05

    def test_as_row_matches_table4_columns(self, clearly_better):
        ours, theirs = clearly_better
        row = wilcoxon_comparison(ours, theirs).as_row()
        assert row["comparison"] == "vs. Tiresias"
        assert "p value (two-sided test)" in row
        assert "p value (one-sided negative test)" in row

    def test_significance_table_covers_all_baselines(self, clearly_better):
        ours, theirs = clearly_better
        other = _result("Optimus", [v * 2 for v in theirs.jct_values()])
        table = significance_table(ours, [theirs, other])
        assert set(table) == {"Tiresias", "Optimus"}
        assert all(r.p_two_sided <= 1.0 for r in table.values())

    def test_no_improvement_is_not_significant_in_our_favour(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(100, 1000, size=30)
        worse = _result("ONES", base * 1.4)
        baseline = _result("DRL", base)
        report = wilcoxon_comparison(worse, baseline)
        assert not report.ours_is_smaller

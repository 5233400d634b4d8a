"""Tests for repro.analysis.metrics."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    compare_results,
    completion_fraction_within,
    improvement_over,
    metric_summary,
    metric_values,
    paired_jobs,
    relative_jct,
)
from repro.sim.simulator import SimulationResult


def _result(name, jcts, exec_times=None):
    exec_times = exec_times or [j * 0.7 for j in jcts]
    completed = {
        f"job-{i:02d}": {
            "jct": float(j),
            "execution_time": float(e),
            "queuing_time": float(j - e),
        }
        for i, (j, e) in enumerate(zip(jcts, exec_times))
    }
    return SimulationResult(
        scheduler_name=name,
        num_gpus=16,
        completed=completed,
        incomplete=[],
        makespan=float(max(jcts)),
        gpu_time_busy=100.0,
        gpu_time_total=200.0,
        num_reconfigurations=3,
        events_processed=10,
    )


@pytest.fixture
def ones_result():
    return _result("ONES", [100, 200, 300, 400])


@pytest.fixture
def baseline_result():
    return _result("Tiresias", [200, 300, 400, 500])


class TestMetricValues:
    def test_values_sorted_by_job_id(self, ones_result):
        values = metric_values(ones_result, "jct")
        assert values.tolist() == [100, 200, 300, 400]

    def test_unknown_metric_rejected(self, ones_result):
        with pytest.raises(ValueError):
            metric_values(ones_result, "latency")


class TestSummaries:
    def test_metric_summary(self, ones_result):
        summary = metric_summary(ones_result, "jct")
        assert summary.scheduler == "ONES"
        assert summary.stats.mean == pytest.approx(250.0)
        assert summary.stats.median == pytest.approx(250.0)

    def test_cdf_and_fraction(self, ones_result):
        summary = metric_summary(ones_result, "jct")
        x, cf = summary.cdf(num_points=50)
        assert cf[-1] == pytest.approx(1.0)
        assert summary.fraction_within(250) == pytest.approx(0.5)

    def test_compare_results(self, ones_result, baseline_result):
        comparison = compare_results([ones_result, baseline_result], "jct")
        assert set(comparison) == {"ONES", "Tiresias"}


class TestComparisons:
    def test_improvement_over(self, ones_result, baseline_result):
        value = improvement_over(ones_result, baseline_result, "jct")
        assert value == pytest.approx(1 - 250.0 / 350.0)

    def test_relative_jct(self, ones_result, baseline_result):
        rel = relative_jct({"ONES": ones_result, "Tiresias": baseline_result}, "ONES")
        assert rel["ONES"] == pytest.approx(1.0)
        assert rel["Tiresias"] == pytest.approx(350.0 / 250.0)

    def test_relative_jct_missing_reference(self, baseline_result):
        with pytest.raises(KeyError):
            relative_jct({"Tiresias": baseline_result}, "ONES")

    def test_paired_jobs(self, ones_result, baseline_result):
        a, b = paired_jobs(ones_result, baseline_result)
        assert len(a) == len(b) == 4
        assert np.all(a < b)

    def test_paired_jobs_no_overlap(self, ones_result):
        other = _result("X", [10])
        other.completed = {"different": other.completed.pop("job-00")}
        with pytest.raises(ValueError):
            paired_jobs(ones_result, other)

    def test_completion_fraction_within(self, ones_result, baseline_result):
        fractions = completion_fraction_within([ones_result, baseline_result], 250.0)
        assert fractions["ONES"] == pytest.approx(0.5)
        assert fractions["Tiresias"] == pytest.approx(0.25)

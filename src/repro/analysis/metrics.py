"""Scheduling-performance metrics (the quantities plotted in Fig. 15/17/18).

All metrics are derived from :class:`repro.sim.simulator.SimulationResult`
objects so a single simulation run feeds every figure that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.sim.simulator import SimulationResult
from repro.utils.stats import SummaryStats, cumulative_frequency, fraction_below, summarize

#: The three per-job time metrics the paper reports.
METRIC_KEYS = ("jct", "execution_time", "queuing_time")


@dataclass(frozen=True)
class MetricSummary:
    """Summary of one metric for one scheduler."""

    scheduler: str
    metric: str
    stats: SummaryStats
    values: Tuple[float, ...]

    def cdf(self, num_points: int = 200, log_space: bool = True):
        """Cumulative-frequency curve (Fig. 15 g/h/i)."""
        return cumulative_frequency(self.values, num_points=num_points, log_space=log_space)

    def fraction_within(self, threshold: float) -> float:
        """Fraction of jobs with metric value below ``threshold``."""
        return fraction_below(self.values, threshold)


def metric_values(result: SimulationResult, metric: str) -> np.ndarray:
    """Per-job values of ``metric`` from a simulation result."""
    if metric not in METRIC_KEYS:
        raise ValueError(f"metric must be one of {METRIC_KEYS}, got {metric!r}")
    return np.asarray(
        [result.completed[j][metric] for j in sorted(result.completed)], dtype=float
    )


def mean_metric(result: SimulationResult, metric: str = "jct") -> float:
    """Mean of ``metric`` over completed jobs (``nan`` when nothing completed).

    The single metric lookup behind :func:`improvement_over`, the
    sweep-artifact aggregations, the CLI, the exporters and the reports,
    so every average printed anywhere in the repo comes from the same
    code path.
    """
    values = metric_values(result, metric)
    return float(values.mean()) if values.size else float("nan")


def metric_summary(result: SimulationResult, metric: str) -> MetricSummary:
    """Summarise one metric of one scheduler run."""
    values = metric_values(result, metric)
    return MetricSummary(
        scheduler=result.scheduler_name,
        metric=metric,
        stats=summarize(values),
        values=tuple(float(v) for v in values),
    )


def compare_results(
    results: Sequence[SimulationResult], metric: str = "jct"
) -> Dict[str, MetricSummary]:
    """Summaries of ``metric`` for several schedulers, keyed by scheduler name."""
    summaries = {}
    for result in results:
        summaries[result.scheduler_name] = metric_summary(result, metric)
    return summaries


def improvement_over(
    ours: SimulationResult, baseline: SimulationResult, metric: str = "jct"
) -> float:
    """Relative reduction of the average metric, e.g. 0.27 = 27% lower.

    This is how the paper states "ONES can reduce the average JCT by
    26.9%, 45.6% and 41.7% compared to DRL, Tiresias and Optimus".
    """
    ours_avg = mean_metric(ours, metric)
    base_avg = mean_metric(baseline, metric)
    if base_avg <= 0:
        raise ValueError("baseline average must be positive")
    return 1.0 - ours_avg / base_avg


def relative_jct(
    results: Mapping[str, SimulationResult], reference: str = "ONES"
) -> Dict[str, float]:
    """Average JCT of each scheduler normalised to ``reference`` (Fig. 18)."""
    if reference not in results:
        raise KeyError(f"reference scheduler {reference!r} not in results")
    ref_avg = results[reference].average_jct
    if not np.isfinite(ref_avg) or ref_avg <= 0:
        raise ValueError("reference average JCT must be positive and finite")
    return {
        name: float(result.average_jct / ref_avg) for name, result in results.items()
    }


def paired_jobs(
    a: SimulationResult, b: SimulationResult, metric: str = "jct"
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-job paired metric values over the jobs both runs completed.

    Wilcoxon signed-rank tests (Table 4) require paired observations —
    the same job scheduled by two different schedulers.
    """
    shared = sorted(set(a.completed) & set(b.completed))
    if not shared:
        raise ValueError("the two results share no completed jobs")
    va = np.asarray([a.completed[j][metric] for j in shared], dtype=float)
    vb = np.asarray([b.completed[j][metric] for j in shared], dtype=float)
    return va, vb


def completion_fraction_within(
    results: Sequence[SimulationResult], threshold: float, metric: str = "jct"
) -> Dict[str, float]:
    """Fraction of jobs finishing within ``threshold`` for each scheduler.

    Used for statements like "the fraction of jobs completed within 200 s
    is 86% for ONES versus 60–80% for the baselines".
    """
    return {
        result.scheduler_name: fraction_below(metric_values(result, metric), threshold)
        for result in results
    }

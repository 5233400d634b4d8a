"""Statistical significance tests (Table 4).

The paper compares per-job JCTs of ONES against each baseline with
non-parametric Wilcoxon signed-rank tests:

* a **two-sided** test of the hypothesis that the two schedulers produce
  equivalent JCTs (rejected when p < 0.05), and
* a **one-sided ("negative" / less)** test of the hypothesis that ONES's
  JCTs are *smaller*; the paper reports the p-value of the complementary
  direction, which is ≈1 when ONES indeed wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.metrics import paired_jobs
from repro.sim.simulator import SimulationResult


@dataclass(frozen=True)
class WilcoxonReport:
    """Outcome of the Wilcoxon comparison of two schedulers."""

    ours: str
    baseline: str
    num_pairs: int
    p_two_sided: float
    p_one_sided_less: float
    p_one_sided_greater: float
    median_difference: float

    @property
    def ours_is_smaller(self) -> bool:
        """One-sided test supports "ours < baseline" at the 5% level."""
        return self.p_one_sided_less < 0.05

    def as_row(self) -> Dict[str, float]:
        """Table-4 style row."""
        return {
            "comparison": f"vs. {self.baseline}",
            "p value (two-sided test)": self.p_two_sided,
            "p value (one-sided negative test)": self.p_one_sided_greater,
        }


def wilcoxon_comparison(
    ours: SimulationResult,
    baseline: SimulationResult,
    metric: str = "jct",
) -> WilcoxonReport:
    """Wilcoxon signed-rank comparison of per-job metrics of two runs."""
    from scipy import stats  # about a second to import; only reports need it

    a, b = paired_jobs(ours, baseline, metric)
    differences = a - b
    if np.allclose(differences, 0.0):
        # Identical results: the test is undefined; report total uncertainty.
        return WilcoxonReport(
            ours=ours.scheduler_name,
            baseline=baseline.scheduler_name,
            num_pairs=int(a.size),
            p_two_sided=1.0,
            p_one_sided_less=0.5,
            p_one_sided_greater=0.5,
            median_difference=0.0,
        )
    two_sided = stats.wilcoxon(a, b, alternative="two-sided", zero_method="wilcox")
    less = stats.wilcoxon(a, b, alternative="less", zero_method="wilcox")
    greater = stats.wilcoxon(a, b, alternative="greater", zero_method="wilcox")
    return WilcoxonReport(
        ours=ours.scheduler_name,
        baseline=baseline.scheduler_name,
        num_pairs=int(a.size),
        p_two_sided=float(two_sided.pvalue),
        p_one_sided_less=float(less.pvalue),
        p_one_sided_greater=float(greater.pvalue),
        median_difference=float(np.median(a - b)),
    )


def significance_table(
    ours: SimulationResult,
    baselines: Sequence[SimulationResult],
    metric: str = "jct",
) -> Dict[str, WilcoxonReport]:
    """Table 4: one Wilcoxon report per baseline, keyed by baseline name."""
    return {
        baseline.scheduler_name: wilcoxon_comparison(ours, baseline, metric)
        for baseline in baselines
    }

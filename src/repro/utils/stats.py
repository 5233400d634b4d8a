"""Summary-statistics helpers shared by the analysis and reporting layers.

The paper reports average job completion time, box-plot style
distributions and cumulative-frequency curves (Fig. 15).  The helpers
here compute those summaries from raw per-job measurements in a single
vectorised pass so that every benchmark and report prints numbers that
are derived identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np


@dataclass(frozen=True)
class SummaryStats:
    """Five-number summary plus mean/std of a sample.

    Attributes mirror what a box plot displays (Fig. 15 d/e/f): the
    median, the quartiles, the whisker extremes, plus the mean and
    standard deviation used for the bar charts (Fig. 15 a/b/c).
    """

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float

def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` over ``values``.

    Raises :class:`ValueError` on an empty sample — an empty experiment
    result almost always indicates a misconfigured run and should not be
    silently reported as zeros.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample")
    return SummaryStats(
        count=int(arr.size),
        mean=float(np.mean(arr)),
        std=float(np.std(arr)),
        minimum=float(np.min(arr)),
        p25=float(np.percentile(arr, 25)),
        median=float(np.percentile(arr, 50)),
        p75=float(np.percentile(arr, 75)),
        maximum=float(np.max(arr)),
    )


def cumulative_frequency(
    values: Iterable[float], num_points: int = 200, log_space: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute a cumulative-frequency curve ``(x, cf)`` for ``values``.

    ``cf[i]`` is the fraction of samples that are ``<= x[i]``.  When
    ``log_space`` is true the x grid is log-spaced, matching the log-scale
    x axes of Fig. 15 g/h.
    """
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("cannot build a CF curve from an empty sample")
    lo, hi = float(arr[0]), float(arr[-1])
    if lo == hi:
        x = np.array([lo, hi])
        return x, np.array([1.0, 1.0])
    if log_space:
        lo = max(lo, 1e-9)
        x = np.logspace(np.log10(lo), np.log10(hi), num_points)
    else:
        x = np.linspace(lo, hi, num_points)
    cf = np.searchsorted(arr, x, side="right") / arr.size
    return x, cf


def fraction_below(values: Iterable[float], threshold: float) -> float:
    """Fraction of samples strictly below ``threshold``.

    Used for statements like *"the fraction of jobs completed within 200 s
    is 86%"* (§4.2 of the paper).
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot compute a fraction over an empty sample")
    return float(np.mean(arr < threshold))


@dataclass
class RunningMean:
    """Streaming mean, updated in place as Welford's algorithm does.

    The simulator uses this to profile per-job throughput online — the
    paper (§3.2.1) uses "the mean value of collected measures".  It keeps
    the count and the mean only; nothing reads a variance.
    """

    count: int = 0
    mean: float = 0.0

    def update(self, value: float) -> None:
        """Fold one observation into the running mean."""
        self.count += 1
        self.mean += (value - self.mean) / self.count

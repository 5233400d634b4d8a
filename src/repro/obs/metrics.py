"""Uniform metrics registry: counters and gauges, plus a latency histogram.

Every entry point (CLI runs, the scheduler service, queue workers)
exposes its counters through one registry type instead of ad-hoc
dicts.  The model follows the Prometheus client idiom — a *family* has
a name, a type, and label names; a *series* is one labeled child — but
stays dependency-free and cheap enough to rebuild on demand:
schedulers construct a registry snapshot from their live counters when
asked, so the hot path carries no metrics objects at all.

:class:`LatencyHistogram` lives here now (moved from
``repro.service.engine``, which re-exports it for compatibility) so
the service, the benchmarks, and the trace inspector all share one
histogram implementation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
]


class LatencyHistogram:
    """Log-bucketed latency histogram (microseconds to ~17 minutes).

    Fixed geometric buckets (factor 2 from 1 µs) keep memory constant
    under sustained load while bounding percentile error to one bucket
    width — the standard trade for service-side latency SLOs.

    Bucket convention (half-open on the left, *closed* on the right):
    bucket 0 holds ``[0, 1 µs]``, bucket ``i >= 1`` holds
    ``(floor * 2^(i-1), floor * 2^i]``.  A value landing exactly on a
    power-of-two edge (e.g. ``2e-6``) belongs to the bucket it is the
    upper bound of — :meth:`_bucket_index` snaps near-edge values onto
    the edge before deciding, so float noise in ``log2`` can never flip
    an edge observation into the next bucket (which used to move
    p50/p99 by a full bucket width under steady edge-valued loads).
    """

    _FLOOR = 1e-6
    _BUCKETS = 40
    #: Relative ``log2`` slack treated as "exactly on a bucket edge".
    _EDGE_EPSILON = 1e-9

    def __init__(self) -> None:
        self.counts = [0] * (self._BUCKETS + 1)
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    @classmethod
    def _bucket_index(cls, value: float) -> int:
        """The bucket of one observation, with explicit edge handling."""
        if value <= cls._FLOOR:
            return 0
        raw = math.log2(value / cls._FLOOR)
        nearest = round(raw)
        if abs(raw - nearest) <= cls._EDGE_EPSILON:
            # On (or within float noise of) an edge: the value is the
            # upper bound of bucket ``nearest``.
            index = max(int(nearest), 1)
        else:
            index = math.ceil(raw)
        # Values beyond floor * 2^40 (~13 days) collapse into the last
        # bucket; see percentile() for the bound this puts on results.
        return min(index, cls._BUCKETS)

    def record(self, seconds: float) -> None:
        """Add one observation (seconds)."""
        value = max(float(seconds), 0.0)
        self.count += 1
        self.total += value
        self.max_value = max(self.max_value, value)
        self.counts[self._bucket_index(value)] += 1

    def percentile(self, p: float) -> float:
        """The latency (seconds) at percentile ``p`` (0-100).

        Returns the upper bound of the bucket containing the rank-``p``
        observation, so the result overestimates the true percentile by
        at most one bucket width (a factor of 2).  The overflow bucket
        has no finite upper edge: results are capped at ``max_value``,
        so a percentile that lands there is bounded by
        ``(floor * 2^40, max observed value]`` — exact only when every
        overflow observation equals the maximum.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(self.count * (p / 100.0)))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                upper = self._FLOOR * (2.0 ** index)
                return min(upper, self.max_value)
        return self.max_value

    @property
    def mean(self) -> float:
        """Mean observed latency in seconds (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Summary statistics in milliseconds (JSON-friendly)."""
        return {
            "count": float(self.count),
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.percentile(50.0) * 1e3,
            "p90_ms": self.percentile(90.0) * 1e3,
            "p99_ms": self.percentile(99.0) * 1e3,
            "max_ms": self.max_value * 1e3,
        }


Number = Union[int, float]


class Counter:
    """Monotonic counter (one labeled series)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def get(self) -> Number:
        return self.value


class Gauge:
    """Settable value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def get(self) -> Number:
        return self.value


_VALID_KINDS = ("counter", "gauge")


class MetricFamily:
    """One named metric with zero or more labeled series."""

    def __init__(self, name: str, kind: str, help: str, label_names: Tuple[str, ...]):
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._series: Dict[Tuple[str, ...], object] = {}

    def _make_child(self) -> object:
        return Counter() if self.kind == "counter" else Gauge()

    def labels(self, **labels: str):
        """The series for one label combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: labels {sorted(labels)} != declared {sorted(self.label_names)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._series.get(key)
        if child is None:
            child = self._make_child()
            self._series[key] = child
        return child

    # Label-less families proxy to their single implicit series.

    def _default(self):
        return self.labels()

    def inc(self, amount: Number = 1) -> None:
        self._default().inc(amount)

    def set(self, value: Number) -> None:
        self._default().set(value)

    def series(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        return sorted(self._series.items())


class MetricsRegistry:
    """Named families of counters and gauges.

    Registration is idempotent: asking for an existing name returns the
    existing family (and raises if the kind or labels disagree), so
    callers can rebuild snapshots without bookkeeping.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _family(self, name: str, kind: str, help: str, labels: Sequence[str]) -> MetricFamily:
        label_names = tuple(labels)
        existing = self._families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                    f"{existing.label_names}, requested {kind}{label_names}"
                )
            return existing
        family = MetricFamily(name, kind, help, label_names)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def set_gauges(self, values: Mapping[str, Number], help: str = "") -> None:
        """Bulk-register label-less gauges from a plain mapping."""
        for name, value in values.items():
            self.gauge(name, help).set(value)

    def families(self) -> Iterable[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def values(self) -> Dict[str, Number]:
        """Flat snapshot of every series.

        Label-less series map ``name -> value``; labeled series map
        ``name{label="v",...} -> value``.  Integer values stay integers
        so callers can splice this into JSON summaries losslessly.
        """
        out: Dict[str, Number] = {}
        for family in self.families():
            for key, child in family.series():
                name = family.name
                if key:
                    label_text = ",".join(
                        f'{label}="{value}"'
                        for label, value in zip(family.label_names, key)
                    )
                    name = f"{name}{{{label_text}}}"
                out[name] = child.get()
        return out

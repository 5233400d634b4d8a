"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import Counter, LatencyHistogram, MetricsRegistry


class TestPrimitives:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.get() == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

class TestFamiliesAndRegistry:
    def test_label_less_family_proxies_to_single_series(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total").inc(3)
        registry.gauge("queue_depth").set(11)
        assert registry.values() == {"jobs_total": 3, "queue_depth": 11}

    def test_labeled_series_created_on_demand(self):
        registry = MetricsRegistry()
        family = registry.counter("completed", labels=("tenant",))
        family.labels(tenant="a").inc()
        family.labels(tenant="a").inc()
        family.labels(tenant="b").inc()
        assert registry.values() == {
            'completed{tenant="a"}': 2,
            'completed{tenant="b"}': 1,
        }

    def test_label_names_validated(self):
        registry = MetricsRegistry()
        family = registry.counter("c", labels=("tenant",))
        with pytest.raises(ValueError):
            family.labels(nope="x")

    def test_registration_idempotent_but_kind_pinned(self):
        registry = MetricsRegistry()
        first = registry.counter("n")
        assert registry.counter("n") is first
        with pytest.raises(ValueError):
            registry.gauge("n")
        with pytest.raises(ValueError):
            registry.counter("n", labels=("tenant",))

    def test_values_preserves_ints(self):
        registry = MetricsRegistry()
        registry.counter("exact").inc(1)
        registry.gauge("ratio").set(0.5)
        values = registry.values()
        assert values["exact"] == 1 and isinstance(values["exact"], int)
        assert values["ratio"] == 0.5

    def test_set_gauges_bulk(self):
        registry = MetricsRegistry()
        registry.set_gauges({"a": 1, "b": 2.5})
        assert registry.values() == {"a": 1, "b": 2.5}


class TestLatencyHistogramRelocation:
    def test_service_engine_reexports_latency_histogram(self):
        from repro.service.engine import LatencyHistogram as ServiceHistogram

        assert ServiceHistogram is LatencyHistogram

    def test_summary_statistics_survive_move(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004):
            hist.record(value)
        summary = hist.as_dict()
        assert summary["count"] == 3.0
        assert summary["max_ms"] == pytest.approx(4.0)
        # percentile() returns the containing bucket's upper edge.
        assert hist.percentile(50.0) == pytest.approx(1e-6 * 2**11)

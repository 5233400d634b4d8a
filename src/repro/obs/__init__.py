"""Observability layer: structured tracing + uniform metrics registry.

See :mod:`repro.obs.trace` for the deterministic span/event recorder
and :mod:`repro.obs.metrics` for the counters/gauges/histograms
registry with Prometheus text exposition.
"""

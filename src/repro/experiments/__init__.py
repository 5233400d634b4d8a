"""Experiment orchestration: declarative specs, registry, runner, artifacts.

The public API for producing every table and figure of the paper:

* :mod:`repro.experiments.registry` — scheduler registry: string names
  -> factories + Table-3 capabilities; new schedulers self-register with
  the :func:`~repro.experiments.registry.register_scheduler` decorator.
* :mod:`repro.experiments.spec` — declarative
  :class:`~repro.experiments.spec.ExperimentSpec` grids (schedulers x
  capacities x seeds x traces) that expand to individual
  :class:`~repro.experiments.spec.RunSpec` cells.
* :mod:`repro.experiments.backends` — pluggable execution backends:
  serial, a process pool producing bit-identical results in parallel,
  or the durable lease-based work queue.  Every cell runs through its
  :func:`~repro.experiments.backends.simulate_trace`, which code that
  needs one bare run (an explicit trace under a scheduler instance)
  calls directly.
* :mod:`repro.experiments.queue` / :mod:`repro.experiments.worker` —
  the crash-safe file-backed :class:`~repro.experiments.queue.WorkQueue`
  (append-only work log + atomic leases) and the worker loop that
  executes cells from it, surviving ``kill -9`` worker churn.
* :mod:`repro.experiments.orchestrator` — the
  :class:`~repro.experiments.orchestrator.Runner`: executes grids with
  content-keyed on-disk caching and ``resume`` support.
* :mod:`repro.experiments.artifacts` — serializable
  :class:`~repro.experiments.artifacts.RunArtifact` /
  :class:`~repro.experiments.artifacts.SweepArtifact` results (JSON
  round-trip, per-job metrics, telemetry summaries).
* :mod:`repro.experiments.report` — Markdown reports of a one-capacity
  comparison or a whole sweep, read from a ``SweepArtifact``.
* :mod:`repro.experiments.figures` — generators for the analytic
  figures that need no cluster simulation.
"""

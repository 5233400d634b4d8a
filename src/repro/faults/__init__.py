"""Deterministic fault injection and cluster dynamics.

This package adds *cluster weather* to the simulator: node outages,
recoveries and stragglers, injected as ordinary kernel events so ONES
and every baseline react through their normal scheduling path.  It is
layered like the rest of the repo:

* :mod:`repro.faults.plan` — the data model: timed
  :class:`~repro.faults.plan.FaultInjection` entries collected into an
  immutable, JSON-round-trippable :class:`~repro.faults.plan.FaultPlan`
  with a content hash.
* :mod:`repro.faults.profiles` — seeded generators (``mtbf``, ``rack``,
  ``maintenance``, ``stragglers``) producing bit-identical plans across
  processes; new profiles self-register with
  :func:`~repro.faults.profiles.register_profile`.
* :mod:`repro.faults.config` — the declarative
  :class:`~repro.faults.config.FaultConfig` that rides inside
  :class:`~repro.sim.simulator.SimulationConfig` (and hence inside
  experiment cell keys) and materialises its plan inside the simulator.
* :mod:`repro.faults.costs` — the checkpoint/restart economics: lost
  work since the last implicit (epoch-boundary) checkpoint plus a
  per-model restore delay.
* :mod:`repro.faults.runtime` — per-run mutable state (down/degraded
  nodes, owed restarts) and the recovery metrics exported in
  ``SimulationResult.faults``.
* :mod:`repro.faults.handlers` — the ``NODE_DOWN`` / ``NODE_UP`` /
  ``GPU_DEGRADED`` event-handler strategies.
* :mod:`repro.faults.masking` — node compaction, which lets ONES evolve
  schedules over the surviving nodes as if they were a smaller cluster.
"""

"""Discrete-event simulation of scheduling a trace on a GPU cluster.

The :class:`repro.sim.simulator.ClusterSimulator` replays a workload
trace against a scheduler and the analytic job models, producing per-job
completion / execution / queuing times — the measurements behind
Figs. 15, 17 and 18 and Table 4.

Layering
--------
The simulation engine is split into three layers, composed by the
``ClusterSimulator`` facade:

``kernel``
    :class:`~repro.sim.kernel.SimulationKernel` — the policy-free event
    loop: clock, deterministic event heap, max-event / max-time guards,
    and the event-kind → handler dispatch table.  It knows nothing about
    jobs or schedulers.
``ledger``
    :class:`~repro.sim.ledger.ProgressLedger` — dense NumPy arrays of
    rate / resume-time / last-progress plus the progress-bearing ``Job``
    state, one packed slot per *running* job.  Advancing the clock is a
    handful of array expressions over those slots (bit-identical to the
    scalar ``Job.advance`` it replaced); values are lazily materialized
    back into ``Job`` objects only when a handler, or a scheduler
    callback through its snapshot's job views, is about to read them.
``handlers``
    :mod:`repro.sim.handlers` — one small strategy object per event
    kind (arrival, epoch end, timer) holding the domain logic.  ONES and
    every baseline share this single dispatch path.

Adding an event kind
--------------------
Add the kind to :class:`~repro.cluster.events.EventKind` (its integer
value is the same-timestamp tie-break priority), implement an
:class:`~repro.sim.kernel.EventHandler` strategy for it in
:mod:`repro.sim.handlers`, register it in
:func:`~repro.sim.handlers.default_handlers`, and push the first event
of that kind from wherever it originates (``ClusterSimulator.run`` seeds
arrivals and the first timer tick).

Profiling
---------
``SimulationConfig(collect_profile=True)`` threads a
:class:`~repro.sim.profiling.SimProfile` through the kernel: per-phase
wall-clock (ledger advance, per-event-kind handler time, scheduler
phases such as GPR refits) lands in ``SimulationResult.profile`` and in
experiment artifacts.
"""

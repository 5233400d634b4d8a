"""Event-handler strategies: the domain logic behind each event kind.

Each handler owns one :class:`~repro.cluster.events.EventKind` and runs
against the :class:`~repro.sim.simulator.ClusterSimulator` facade it was
bound to.  ONES and every baseline share this single dispatch path — a
scheduler only ever differs in what its callbacks return, never in how
events reach it.

Handlers follow the ledger synchronisation contract (see
:mod:`repro.sim.ledger`): call ``sim.ledger.materialize(job_id)`` before
*reading* a job's progress, and ``sim.ledger.pull(job)`` after
*mutating* it outside the ledger — which is also how a job that starts
running takes a ledger slot and one that stops gives it up.  A snapshot
built by ``sim._state()`` writes every running job back the first time
its callback asks for a job view, so scheduler callbacks always observe
up-to-date ``Job`` objects, and a callback that reads none (FIFO's
``on_epoch_end``) costs no write-back.  Outside a callback, read job
progress only after a flush: ``sim._apply_allocation`` flushes before
it re-configures jobs, and ``sim._build_result`` before it reports.

Adding a new event kind — the ``NODE_DOWN`` worked example
----------------------------------------------------------
The fault-injection subsystem (:mod:`repro.faults`) added three kinds by
exactly this recipe; ``NODE_DOWN`` is the richest one to copy from:

1. **Add the kind to** :class:`~repro.cluster.events.EventKind`.  Its
   integer value is the same-timestamp tie-break priority — *append*
   new members (``NODE_DOWN = 5``) so every pre-existing ordering stays
   bit-identical, and order the new members against each other
   deliberately (``NODE_DOWN`` before ``NODE_UP`` so a coincident
   outage hand-off never sees both nodes up at once).
2. **Write a handler** subclassing :class:`~repro.sim.kernel.EventHandler`,
   binding the simulator in ``__init__`` and setting ``kind``.
   :class:`~repro.faults.handlers.NodeDownHandler` shows the full
   pattern, including the ledger contract: it ``materialize()``\\ s each
   victim before reading its progress, mutates the ``Job`` (rolls back
   uncheckpointed work, ``stop_running`` — which bumps the generation so
   stale ``EPOCH_END`` events are lazily dropped), then ``pull()``\\ s the
   job, which gives its ledger slot up.  Domain-specific handlers can
   live next to their subsystem (``repro/faults/handlers.py``) rather
   than here.
3. **Register it** in :func:`default_handlers` (or pass a custom handler
   map to the simulator) and **push the first event** from wherever it
   originates — fault events are seeded by ``ClusterSimulator.run`` from
   the run's :class:`~repro.faults.plan.FaultPlan`, with the plan entry
   riding in ``Event.payload``.
4. If the handler must make the *scheduler* react, expose a callback on
   :class:`~repro.baselines.base.SchedulerBase` (``NODE_DOWN`` added
   ``on_fault``) with a safe default, and call it through
   ``sim._state()`` / ``sim._apply_allocation`` so every policy reacts
   through the same path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.cluster.events import Event, EventKind
from repro.faults.handlers import fault_handlers
from repro.sim.kernel import EventHandler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (facade imports us)
    from repro.sim.simulator import ClusterSimulator


class ArrivalHandler(EventHandler):
    """``JOB_ARRIVAL``: materialise the job and offer it to the scheduler."""

    kind = EventKind.JOB_ARRIVAL

    def __init__(self, sim: "ClusterSimulator") -> None:
        self.sim = sim

    def handle(self, event: Event) -> None:
        sim = self.sim
        job = sim.admit_job(event.job_id)
        proposal = sim.scheduler.on_job_arrival(job, sim._state())
        if proposal is not None:
            sim._apply_allocation(proposal)


class EpochEndHandler(EventHandler):
    """``EPOCH_END``: record the epoch, test convergence, notify the scheduler.

    Stale events — scheduled before a re-configuration bumped the job's
    generation — are dropped without touching the ledger or the
    scheduler (lazy invalidation; see :mod:`repro.cluster.events`).
    """

    kind = EventKind.EPOCH_END

    def __init__(self, sim: "ClusterSimulator") -> None:
        self.sim = sim

    def handle(self, event: Event) -> None:
        sim = self.sim
        job = sim.jobs.get(event.job_id)
        if job is None or not job.is_running:
            return
        if event.generation != job.generation:
            return  # stale event from before a re-configuration
        sim.ledger.materialize(job.job_id)
        # Snap tiny floating-point drift onto the epoch boundary so epochs
        # are not double-counted.
        boundary = round(job.samples_processed / job.dataset_size) * job.dataset_size
        if boundary > 0 and abs(job.samples_processed - boundary) < 0.5:
            job.samples_processed = float(boundary)
            sim.ledger.set_samples(job.job_id, job.samples_processed)
        record = job.complete_epoch(sim.now)
        if job.is_converged:
            sim._complete_job(job)
            return
        proposal = sim.scheduler.on_epoch_end(job, record, sim._state())
        if proposal is not None:
            sim._apply_allocation(proposal)
        if job.is_running and event.generation == job.generation:
            # Configuration unchanged: schedule the next epoch boundary.
            sim._schedule_epoch_end(job)


class TimerHandler(EventHandler):
    """``TIMER``: periodic rescheduling tick, self-re-arming until done."""

    kind = EventKind.TIMER

    def __init__(self, sim: "ClusterSimulator") -> None:
        self.sim = sim

    def handle(self, event: Event) -> None:
        sim = self.sim
        proposal = sim.scheduler.on_timer(sim._state())
        if proposal is not None:
            sim._apply_allocation(proposal)
        if sim.scheduler.timer_interval is not None and not sim._all_done():
            sim.kernel.push(
                Event(
                    time=sim.now + sim.scheduler.timer_interval,
                    kind=EventKind.TIMER,
                )
            )


def default_handlers(sim: "ClusterSimulator") -> Dict[EventKind, EventHandler]:
    """The standard handler set shared by ONES and every baseline.

    ``JOB_COMPLETION`` / ``RECONFIG_DONE`` have no standalone handlers:
    completions are folded into the epoch-end path (a job can only
    converge at an epoch boundary) and re-configuration ends are modelled
    as progress-resume times in the ledger.  The fault kinds
    (``NODE_DOWN`` / ``NODE_UP`` / ``GPU_DEGRADED``) are always
    registered — registration costs three dict entries; without a fault
    plan no such event is ever pushed, so the zero-fault loop is
    untouched.
    """
    handlers = [ArrivalHandler(sim), EpochEndHandler(sim), TimerHandler(sim)]
    handlers.extend(fault_handlers(sim))
    return {handler.kind: handler for handler in handlers}

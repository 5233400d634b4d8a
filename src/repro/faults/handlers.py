"""Fault event handlers: the kernel-side half of fault injection.

These are ordinary :class:`~repro.sim.kernel.EventHandler` strategies,
built exactly by the add-an-event-kind recipe in
:mod:`repro.sim.handlers` and registered alongside the arrival /
epoch-end / timer handlers.  Each consumes one of the fault
:class:`~repro.cluster.events.EventKind` members; the event's ``payload``
is the originating :class:`~repro.faults.plan.FaultInjection`.

``NODE_DOWN``
    Marks the node down, **evicts every job with a worker on it** (the
    whole job — losing one member kills the all-reduce gang), charges
    the checkpoint/restart cost model (progress since the last implicit
    checkpoint is rolled back; a restore delay is owed at the next
    start), shrinks the cluster's available capacity, and asks the
    scheduler to react via :meth:`SchedulerBase.on_fault` — its normal
    rescheduling path, so ONES and every baseline recover using the
    same policy logic they schedule with.
``NODE_UP``
    Restores the node's capacity and again triggers ``on_fault`` so the
    scheduler can immediately re-expand onto the recovered GPUs.
``GPU_DEGRADED``
    Applies a throughput multiplier to the node (straggler); running
    jobs with workers there have their progress rate re-derived and
    their epoch boundary re-scheduled.  A factor of 1.0 restores full
    speed.  No capacity changes and no evictions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.cluster.allocation import Allocation
from repro.cluster.events import Event, EventKind
from repro.faults.plan import FaultInjection
from repro.obs.trace import active_tracer
from repro.sim.kernel import EventHandler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (facade imports us)
    from repro.sim.simulator import ClusterSimulator


def _injection(event: Event) -> FaultInjection:
    payload = event.payload
    if not isinstance(payload, FaultInjection):
        raise TypeError(
            f"fault event at t={event.time} carries payload {payload!r}; "
            f"expected a FaultInjection"
        )
    return payload


def _dispatch_on_fault(sim: "ClusterSimulator") -> None:
    """Let the scheduler react to the capacity change through its own policy."""
    proposal = sim.scheduler.on_fault(sim._state())
    if proposal is not None:
        sim._apply_allocation(proposal)


class NodeDownHandler(EventHandler):
    """``NODE_DOWN``: evict affected jobs, shrink capacity, reschedule."""

    kind = EventKind.NODE_DOWN

    def __init__(self, sim: "ClusterSimulator") -> None:
        self.sim = sim

    def handle(self, event: Event) -> None:
        sim = self.sim
        injection = _injection(event)
        if not sim.faults.mark_down(injection.node_id):
            return  # duplicate injection: the node is already down
        dead_gpus = {int(g) for g in sim.topology.gpus_of_node(injection.node_id)}
        mapping = sim.allocation.as_dict()  # {gpu: (job_id, local_batch)}
        victims = sorted({worker[0] for gpu, worker in mapping.items() if gpu in dead_gpus})
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "node_down",
                "fault",
                sim.now,
                node=int(injection.node_id),
                victims=len(victims),
            )
        for job_id in victims:
            self._evict(job_id)
        if victims:
            # Drop every victim's workers (even those on healthy nodes:
            # the gang is broken) from the deployed allocation.
            dead_jobs = set(victims)
            survivors = {
                gpu: worker
                for gpu, worker in mapping.items()
                if worker[0] not in dead_jobs
            }
            sim.allocation = Allocation(
                {gpu: _assignment(worker) for gpu, worker in survivors.items()}
            )
        _dispatch_on_fault(sim)

    def _evict(self, job_id: str) -> None:
        """Kill one job's gang: roll back uncheckpointed work, owe a restore."""
        sim = self.sim
        job = sim.jobs[job_id]
        sim.ledger.materialize(job_id)
        lost = sim.fault_costs.lost_samples(job)
        rate = sim.ledger.rate_of(job_id)
        lost_seconds = lost / rate if rate > 0 else 0.0
        if lost > 0:
            batch = max(1, job.global_batch)
            gain = job.spec.convergence.epoch_progress(batch, job.lr_scaled)
            fraction = lost / job.dataset_size
            job.samples_processed = max(0.0, job.samples_processed - lost)
            job.effective_epochs = max(0.0, job.effective_epochs - fraction * gain)
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "evict",
                "fault",
                sim.now,
                job=job_id,
                lost_samples=float(lost),
                num_gpus=job.num_gpus,
            )
        sim.faults.charge_eviction(lost, lost_seconds, job.num_gpus)
        sim.faults.owe_restart(
            job_id, sim.fault_costs.restart_delay(job, sim.overheads)
        )
        # stop_running bumps the generation, so pending EPOCH_END events
        # scheduled for the dead configuration are lazily invalidated.
        job.stop_running(sim.now)
        sim.ledger.pull(job)


class NodeUpHandler(EventHandler):
    """``NODE_UP``: restore capacity and let the scheduler re-expand."""

    kind = EventKind.NODE_UP

    def __init__(self, sim: "ClusterSimulator") -> None:
        self.sim = sim

    def handle(self, event: Event) -> None:
        sim = self.sim
        injection = _injection(event)
        if not sim.faults.mark_up(injection.node_id):
            return  # duplicate injection: the node was not down
        tracer = active_tracer()
        if tracer is not None:
            tracer.event("node_up", "fault", sim.now, node=int(injection.node_id))
        _dispatch_on_fault(sim)


class GpuDegradedHandler(EventHandler):
    """``GPU_DEGRADED``: apply a straggler multiplier to a node's GPUs."""

    kind = EventKind.GPU_DEGRADED

    def __init__(self, sim: "ClusterSimulator") -> None:
        self.sim = sim

    def handle(self, event: Event) -> None:
        sim = self.sim
        injection = _injection(event)
        sim.faults.set_degrade(injection.node_id, injection.factor)
        tracer = active_tracer()
        if tracer is not None:
            tracer.event(
                "degrade",
                "fault",
                sim.now,
                node=int(injection.node_id),
                factor=float(injection.factor),
            )
        slow_gpus = {int(g) for g in sim.topology.gpus_of_node(injection.node_id)}
        affected: List[str] = sorted(
            {
                worker[0]
                for gpu, worker in sim.allocation.as_dict().items()
                if gpu in slow_gpus
            }
        )
        for job_id in affected:
            job = sim.jobs[job_id]
            if not job.is_running:
                continue
            config = sim.allocation.config_of(job_id)
            if config is None:
                continue
            sim.ledger.materialize(job_id)
            # The rate changes without a re-configuration: bump the
            # generation so the stale epoch boundary is dropped, then
            # re-derive the rate under the new multiplier and reschedule.
            job.generation += 1
            base_rate = sim.throughput_model.throughput(
                job.spec.model, list(config.local_batches), list(config.gpu_ids)
            )
            sim.ledger.set_rate(
                job_id, base_rate * sim.faults.placement_factor(config.gpu_ids)
            )
            sim._schedule_epoch_end(job)


def fault_handlers(sim: "ClusterSimulator") -> List[EventHandler]:
    """The three fault-kind strategies bound to one simulator."""
    return [NodeDownHandler(sim), NodeUpHandler(sim), GpuDegradedHandler(sim)]


def _assignment(worker):
    from repro.cluster.allocation import WorkerAssignment

    if isinstance(worker, WorkerAssignment):
        return worker
    job_id, local_batch = worker
    return WorkerAssignment(job_id=job_id, local_batch=local_batch)

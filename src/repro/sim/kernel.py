"""The discrete-event kernel: clock, heap, guards and handler dispatch.

The kernel is the policy-free core of the simulator.  It owns

* the simulation clock (``now``) with the time-goes-backwards guard,
* the :class:`~repro.cluster.events.EventQueue`,
* the run guards (``max_events`` / ``max_time``), and
* the event-kind → handler-strategy dispatch table.

Everything domain-specific — jobs, allocations, scheduler callbacks —
lives in the handler strategies (:mod:`repro.sim.handlers`) and the
:class:`~repro.sim.simulator.ClusterSimulator` facade that wires them
up.  The ``advance_hook`` is called exactly once per processed event,
*before* the handler, with the (clamped) target time; the facade uses it
for GPU busy-time accounting and to advance the vectorized
:class:`~repro.sim.ledger.ProgressLedger`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Mapping, Optional

from repro.cluster.events import Event, EventKind, EventQueue
from repro.obs.trace import TraceRecorder
from repro.sim.profiling import SimProfile

#: Called with the clamped target time before each event's handler runs.
AdvanceHook = Callable[[float], None]
#: Stop predicate checked after each handled event.
DonePredicate = Callable[[], bool]


class EventHandler:
    """Strategy interface: one event kind's domain logic.

    Subclasses implement :meth:`handle`; the kernel never inspects the
    event beyond its ``kind``.  See :mod:`repro.sim.handlers` for the
    concrete strategies and the recipe for adding a new event kind.
    """

    #: The :class:`EventKind` this handler consumes (dispatch key).
    kind: EventKind

    def handle(self, event: Event) -> None:
        """Process one event (the clock has already advanced to it)."""
        raise NotImplementedError


class SimulationKernel:
    """Deterministic event loop with guards and pluggable handlers."""

    def __init__(
        self,
        *,
        max_time: float,
        max_events: int,
        advance_hook: AdvanceHook,
        done: DonePredicate,
        handlers: Mapping[EventKind, EventHandler],
        profile: Optional[SimProfile] = None,
        tracer: Optional[TraceRecorder] = None,
    ) -> None:
        self.max_time = float(max_time)
        self.max_events = int(max_events)
        self.now: float = 0.0
        self.events = EventQueue()
        self.events_processed: int = 0
        self.profile = profile
        self.tracer = tracer
        self._advance_hook = advance_hook
        self._done = done
        self._handlers = dict(handlers)

    # -- event plumbing -----------------------------------------------------------------

    def push(self, event: Event) -> None:
        """Schedule an event (delegates to the deterministic queue)."""
        self.events.push(event)

    def inject(self, event: Event) -> None:
        """Push an event into a *live* kernel (online submissions).

        Unlike :meth:`push` — which trusts the caller because pre-run
        trace loading legitimately schedules the whole future — ``inject``
        is the entry point for events originating *outside* the event
        loop while it is running (job submissions against a live
        simulator).  It guards against scheduling into the past: an event
        earlier than the current clock could never be processed in order
        and would trip the backwards-time guard (or worse, silently
        corrupt causality if the clock already moved past it).
        """
        if event.time < self.now - 1e-9:
            raise RuntimeError(
                f"cannot inject event at t={event.time} into a kernel already "
                f"at t={self.now} (events must not be scheduled in the past)"
            )
        self.events.push(event)

    def advance(self, to_time: float) -> None:
        """Advance the clock to ``to_time`` (clamped to never go backwards).

        Raises ``RuntimeError`` when an event surfaces more than the
        float tolerance *before* the current clock — that is an event
        ordering bug, never a legal schedule.
        """
        if to_time < self.now - 1e-9:
            raise RuntimeError(
                f"time went backwards: {self.now} -> {to_time} (event ordering bug)"
            )
        to_time = max(to_time, self.now)
        self._advance_hook(to_time)
        self.now = to_time

    # -- incremental stepping (online mode) ---------------------------------------------

    def step(self) -> Optional[Event]:
        """Process exactly one due event; ``None`` when nothing is processable.

        The stepping twin of :meth:`run`: same clock advance, same
        profiling, same dispatch — but the caller owns the loop, so new
        events can be :meth:`inject`\\ ed between steps (a live service
        interleaving submissions with event processing).  Guards are
        honoured non-destructively: an event beyond ``max_time`` stays
        queued (``run`` discards it, but a stepping caller may still
        raise ``max_time`` and continue).
        """
        if not self.events or self.events_processed >= self.max_events:
            return None
        if self.events.peek().time > self.max_time:
            return None
        event = self.events.pop()
        self.events_processed += 1
        profile = self.profile
        if profile is None:
            self.advance(event.time)
        else:
            start = perf_counter()
            self.advance(event.time)
            profile.time_advance(start)
        self._dispatch(event, profile)
        return event

    def _dispatch(self, event: Event, profile: Optional[SimProfile]) -> None:
        """Run the event's handler, with optional profiling and tracing.

        When a tracer is installed *and enabled*, the handler runs inside
        an ``event:{KIND}`` span so scheduler decisions, fault evictions
        and service admissions emitted during handling nest under the
        kernel event that caused them.  The span's times are virtual
        (``event.time`` → ``self.now``), never wall-clock, preserving
        trace content-comparability across runs.
        """
        handler = self._handlers.get(event.kind)
        if handler is None:
            return
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            span = tracer.begin_span(
                f"event:{event.kind.name}", "kernel", event.time, job=event.job_id
            )
            try:
                if profile is None:
                    handler.handle(event)
                else:
                    start = perf_counter()
                    handler.handle(event)
                    profile.time_handler(event.kind, start)
            finally:
                tracer.end_span(span, t=self.now)
        else:
            if profile is None:
                handler.handle(event)
            else:
                start = perf_counter()
                handler.handle(event)
                profile.time_handler(event.kind, start)

    # -- the loop -----------------------------------------------------------------------

    def run(self) -> int:
        """Process events until done / drained / guard-tripped.

        Returns the number of events processed.  The loop is exactly the
        historical ``ClusterSimulator.run`` loop: pop, stop past
        ``max_time``, advance the clock, dispatch to the kind's handler
        (unknown kinds are ignored, matching the old if/elif chain), stop
        when the done-predicate holds.
        """
        profile = self.profile
        while self.events and self.events_processed < self.max_events:
            event = self.events.pop()
            if event.time > self.max_time:
                break
            self.events_processed += 1
            if profile is None:
                self.advance(event.time)
            else:
                start = perf_counter()
                self.advance(event.time)
                profile.time_advance(start)
            self._dispatch(event, profile)
            if self._done():
                break
        return self.events_processed

"""Per-phase wall-clock profiling of a simulation run.

A :class:`SimProfile` is the cheap, always-serialisable record of where a
simulation spent its host wall-clock: advancing the progress ledger,
inside each event-kind handler (which includes the scheduler callback
that handler invokes), and — for schedulers that report it, like ONES —
inside predictor refits.  Schedulers may attribute finer-grained phases
through :meth:`SimProfile.record`; ONES reports its per-operator
evolution breakdown this way (``evo_fill``, ``evo_crossover``,
``evo_mutation``, ``evo_selection``) plus the scoring-cache phases
``rescore_full`` (decomposition rebuilds) and ``rescore_delta``
(incremental cache reuse) — see
:mod:`repro.core.scoring_incremental`.  It is threaded through the
experiment layer by
``SimulationConfig.collect_profile``: any declarative
:class:`~repro.experiments.spec.RunSpec` can switch it on, and the
resulting phase table rides along in the ``SimulationResult`` (and hence
in sweep artifacts) so grid runs can attribute their cost.

Profiling is off by default: wall-clock is host-dependent, so enabling
it makes artifacts non-reproducible across machines by design.  The
simulator keeps the hot loop free of timer calls when disabled.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

from repro.cluster.events import EventKind


class SimProfile:
    """Accumulates per-phase wall-clock seconds and per-kind event counts."""

    def __init__(self) -> None:
        self.advance_seconds: float = 0.0
        self.handler_seconds: Dict[EventKind, float] = {}
        self.event_counts: Dict[EventKind, int] = {}
        self.extra_seconds: Dict[str, float] = {}
        self._started = perf_counter()

    # -- timers used by the kernel ------------------------------------------------------

    def time_advance(self, start: float) -> None:
        """Charge ``perf_counter() - start`` to the ledger/clock phase."""
        self.advance_seconds += perf_counter() - start

    def time_handler(self, kind: EventKind, start: float) -> None:
        """Charge ``perf_counter() - start`` to one event kind's handler."""
        elapsed = perf_counter() - start
        self.handler_seconds[kind] = self.handler_seconds.get(kind, 0.0) + elapsed
        self.event_counts[kind] = self.event_counts.get(kind, 0) + 1

    def record(self, phase: str, seconds: float) -> None:
        """Attribute extra seconds to a named phase (e.g. ``gpr_refit``)."""
        self.extra_seconds[phase] = self.extra_seconds.get(phase, 0.0) + seconds

    # -- export -------------------------------------------------------------------------

    def as_dict(self) -> Dict[str, float]:
        """Flat profiling table: ``*_seconds`` wall-clock phases plus
        ``events_<kind>`` per-kind event counts (floats for JSON
        uniformity — not seconds).

        Event kinds serialise as their *names* (``handler_timer_seconds``,
        ``events_node_down``), never enum reprs, so artifact keys stay
        stable across enum reordering.
        """
        payload: Dict[str, float] = {
            "total_seconds": perf_counter() - self._started,
            "advance_seconds": self.advance_seconds,
        }
        for kind, seconds in sorted(self.handler_seconds.items()):
            payload[f"handler_{kind.name.lower()}_seconds"] = seconds
        for kind, count in sorted(self.event_counts.items()):
            payload[f"events_{kind.name.lower()}"] = float(count)
        for phase, seconds in sorted(self.extra_seconds.items()):
            key = f"{phase}_seconds"
            if key in payload:
                # Never let a scheduler-reported phase name clobber a
                # kernel-recorded key (e.g. a phase called "advance").
                key = f"scheduler_{key}"
            payload[key] = seconds
        return payload

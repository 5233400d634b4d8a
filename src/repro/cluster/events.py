"""Discrete-event machinery for the cluster simulator.

The simulator advances time by processing events in chronological order.
Ties are broken by an explicit priority (job completions before arrivals
before epoch ends before timers) and then by insertion order, so runs are
fully deterministic for a given seed.

Events carry a *generation* counter: when a job is re-configured, its
pending epoch-end event becomes stale and must be ignored.  Rather than
searching the heap to delete it, the simulator bumps the job's generation
and drops stale events as they surface (standard lazy invalidation).
"""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional


class EventKind(enum.IntEnum):
    """Kinds of simulation events, ordered by tie-break priority.

    The fault kinds are appended *after* the historical members so every
    pre-existing same-timestamp ordering is unchanged (zero-fault runs
    stay bit-identical).  Among the fault kinds, a ``NODE_DOWN`` at time
    ``t`` is applied before a ``NODE_UP`` at the same instant, so a
    coincident outage hand-off never observes both nodes up at once.
    """

    JOB_COMPLETION = 0
    JOB_ARRIVAL = 1
    EPOCH_END = 2
    RECONFIG_DONE = 3
    TIMER = 4
    NODE_DOWN = 5
    NODE_UP = 6
    GPU_DEGRADED = 7


@dataclass(frozen=True, order=False)
class Event:
    """A single simulation event.

    Attributes
    ----------
    time:
        Simulation timestamp (seconds).
    kind:
        The :class:`EventKind`.
    job_id:
        The job the event concerns (``None`` for pure timers).
    generation:
        Configuration generation of the job when the event was scheduled;
        used to drop events invalidated by a re-configuration.
    payload:
        Free-form extra data.
    """

    time: float
    kind: EventKind
    job_id: Optional[str] = None
    generation: int = 0
    payload: Any = None


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._size = 0

    def push(self, event: Event) -> None:
        """Insert an event."""
        if event.time < 0:
            raise ValueError(f"event time must be >= 0, got {event.time}")
        heapq.heappush(
            self._heap, (event.time, int(event.kind), next(self._counter), event)
        )
        self._size += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        _, _, _, event = heapq.heappop(self._heap)
        self._size -= 1
        return event

    def peek(self) -> Event:
        """Return the earliest event without removing it."""
        if not self._heap:
            raise IndexError("peek on an empty EventQueue")
        return self._heap[0][3]

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

"""Deterministic fault plans: timed node outages and degradations.

A :class:`FaultPlan` is the *data* half of the fault-injection subsystem:
an immutable, time-sorted sequence of :class:`FaultInjection` entries
(``NODE_DOWN`` / ``NODE_UP`` / ``GPU_DEGRADED``), fully described by
plain JSON.  Plans never execute anything themselves — the simulator
turns each injection into a kernel event
(:mod:`repro.faults.handlers`) — which is what makes a faulted run a
pure function of its spec, exactly like every other
:class:`~repro.experiments.spec.RunSpec` cell: the same plan replayed in
another process (or on another machine) produces a bit-identical
trajectory.

Plans are either generated from a seeded profile
(:mod:`repro.faults.profiles`) or parsed from JSON (``FaultPlan.from_json``
/ ``load``), and carry a content hash (:meth:`FaultPlan.plan_key`) so
experiment cell keys change whenever the injected faults do.

Granularity contract
--------------------
Availability changes are **node-granular**: an outage takes down a whole
server and every GPU in it.  This matches how GPU clusters actually fail
(PSU, NIC, host kernel) and is what lets the ONES masking layer
(:mod:`repro.faults.masking`) compact the surviving nodes onto a dense
virtual topology without breaking placement locality.  ``GPU_DEGRADED``
does *not* remove capacity — it multiplies the throughput of every GPU
on the node by ``factor`` (a straggler), and a later injection with
``factor = 1.0`` restores full speed.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.utils.validation import check_non_negative

PathLike = Union[str, Path]


class FaultKind(enum.Enum):
    """What one injection does to its node."""

    NODE_DOWN = "node_down"
    NODE_UP = "node_up"
    GPU_DEGRADED = "gpu_degraded"


#: Same-timestamp ordering of injections (mirrors the EventKind
#: tie-break priorities): a DOWN at time t is applied before an UP at
#: the same instant, so coincident outage hand-offs never observe a
#: transiently empty cluster as *extra* capacity.
_KIND_ORDER = {FaultKind.NODE_DOWN: 0, FaultKind.NODE_UP: 1, FaultKind.GPU_DEGRADED: 2}


@dataclass(frozen=True)
class FaultInjection:
    """One timed fault: a node goes down, comes back, or degrades.

    Attributes
    ----------
    time:
        Simulation timestamp (seconds) at which the fault strikes.
    kind:
        The :class:`FaultKind`.
    node_id:
        The affected server (every GPU on it is affected).
    factor:
        Throughput multiplier for ``GPU_DEGRADED`` (``0 < factor <= 1``;
        ``1.0`` restores full speed).  Ignored by the availability kinds.
    """

    time: float
    kind: FaultKind
    node_id: int
    factor: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative(self.time, "time")
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if int(self.node_id) < 0:
            raise ValueError(f"node_id must be >= 0, got {self.node_id}")
        object.__setattr__(self, "node_id", int(self.node_id))
        if not 0.0 < float(self.factor) <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {self.factor}")
        object.__setattr__(self, "factor", float(self.factor))

    def sort_key(self) -> Tuple[float, int, int]:
        """Canonical ordering key: time, kind priority, node id."""
        return (self.time, _KIND_ORDER[self.kind], self.node_id)

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        return {
            "time": float(self.time),
            "kind": self.kind.value,
            "node_id": int(self.node_id),
            "factor": float(self.factor),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultInjection":
        """Rebuild a :class:`FaultInjection` from :meth:`to_dict` output."""
        return cls(
            time=float(payload["time"]),
            kind=FaultKind(payload["kind"]),
            node_id=int(payload["node_id"]),
            factor=float(payload.get("factor", 1.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, canonically-ordered sequence of fault injections."""

    injections: Tuple[FaultInjection, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.injections, key=FaultInjection.sort_key))
        object.__setattr__(self, "injections", ordered)

    # -- views --------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.injections)

    def __iter__(self) -> Iterator[FaultInjection]:
        return iter(self.injections)

    def counts(self) -> Dict[str, int]:
        """Number of injections per kind (keys are ``FaultKind`` values)."""
        counts = {kind.value: 0 for kind in FaultKind}
        for injection in self.injections:
            counts[injection.kind.value] += 1
        return counts

    # -- validation ---------------------------------------------------------------------

    def validate(self, num_nodes: int) -> None:
        """Check the plan against a cluster of ``num_nodes`` servers.

        Raises :class:`ValueError` when an injection references a node
        outside the cluster, when the plan is inconsistent (an UP for a
        node that is not down, a DOWN for a node already down), or when
        at any instant *every* node would be down (a blackout no
        scheduler could survive — plans must leave at least one server).
        """
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        down: set = set()
        for injection in self.injections:
            if injection.node_id >= num_nodes:
                raise ValueError(
                    f"injection references node {injection.node_id} outside "
                    f"the cluster range [0, {num_nodes})"
                )
            if injection.kind is FaultKind.NODE_DOWN:
                if injection.node_id in down:
                    raise ValueError(
                        f"node {injection.node_id} goes down at t={injection.time} "
                        f"while already down"
                    )
                down.add(injection.node_id)
                if len(down) >= num_nodes:
                    raise ValueError(
                        f"plan takes down every node at t={injection.time}; "
                        f"at least one server must stay up"
                    )
            elif injection.kind is FaultKind.NODE_UP:
                if injection.node_id not in down:
                    raise ValueError(
                        f"node {injection.node_id} comes up at t={injection.time} "
                        f"without being down"
                    )
                down.discard(injection.node_id)

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        return {"injections": [injection.to_dict() for injection in self.injections]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultPlan":
        """Rebuild a :class:`FaultPlan` from :meth:`to_dict` output."""
        return cls(
            injections=tuple(
                FaultInjection.from_dict(entry) for entry in payload.get("injections", [])
            )
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Deserialize from a JSON string of :meth:`to_dict`'s shape."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: PathLike) -> "FaultPlan":
        """Read a JSON plan file (``{"injections": [...]}``, as :meth:`to_dict` gives)."""
        return cls.from_json(Path(path).read_text())

    def plan_key(self) -> str:
        """Content hash of the plan (folded into experiment cell keys)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Outage:
    """One contiguous node outage used by the profile generators."""

    node_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("outage end must be after its start")


def assemble_plan(
    outages: Sequence[Outage],
    degrades: Sequence[FaultInjection] = (),
    *,
    num_nodes: int,
    max_down_fraction: float = 0.5,
) -> FaultPlan:
    """Turn generator output into a valid :class:`FaultPlan`.

    Outages are admitted in ``(start, node_id)`` order; any outage that
    would push the number of concurrently-down nodes above
    ``max_down_fraction`` of the cluster (always leaving at least one
    node up) is dropped deterministically.  An outage *touching* an
    active one (start exactly at its end) counts as overlapping: at that
    instant the ``NODE_DOWN`` is applied before the coincident
    ``NODE_UP`` (the event tie-break), so admitting it would transiently
    exceed the floor — e.g. black out a two-node cluster during a
    rolling-maintenance hand-off.  Admitted outages become paired
    ``NODE_DOWN`` / ``NODE_UP`` injections; ``degrades`` are passed
    through unchanged.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if not 0.0 < max_down_fraction <= 1.0:
        raise ValueError("max_down_fraction must be in (0, 1]")
    cap = min(max(1, int(num_nodes * max_down_fraction)), num_nodes - 1)
    injections: List[FaultInjection] = list(degrades)
    if cap >= 1:
        active: Dict[int, float] = {}  # node -> outage end
        for outage in sorted(outages, key=lambda o: (o.start, o.node_id)):
            active = {n: end for n, end in active.items() if end >= outage.start}
            if len(active) >= cap or outage.node_id in active:
                continue  # would exceed the capacity floor / node already down
            active[outage.node_id] = outage.end
            injections.append(
                FaultInjection(outage.start, FaultKind.NODE_DOWN, outage.node_id)
            )
            injections.append(
                FaultInjection(outage.end, FaultKind.NODE_UP, outage.node_id)
            )
    plan = FaultPlan(tuple(injections))
    plan.validate(num_nodes)
    return plan

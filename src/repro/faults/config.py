"""Declarative fault configuration: the experiment-grid axis.

A :class:`FaultConfig` describes *which* faults a simulation is exposed
to — a named seeded profile plus its parameters, or an explicit list of
injections parsed from JSON — together with the checkpoint/restart cost
knobs.  Like :class:`~repro.workload.trace.TraceConfig` it is pure data:
JSON round-trippable, hashable, and content-keyed, so it can ride inside
a :class:`~repro.sim.simulator.SimulationConfig` through
:meth:`~repro.experiments.spec.RunSpec.cell_key` and across process
boundaries.  The concrete :class:`~repro.faults.plan.FaultPlan` is only
materialised inside the simulator (``build_plan``), from the config, the
cluster's node count and the simulation horizon — all of which are part
of the cell — so a faulted cell stays a pure function of its spec.

A config with ``profile="none"`` and no explicit injections is
*disabled*: :class:`~repro.sim.simulator.SimulationConfig` normalises it
to ``None``, which keeps zero-fault cell keys (and trajectories)
bit-identical to builds that predate the fault subsystem.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Mapping, Tuple, Union

from repro.faults.plan import FaultInjection, FaultPlan
from repro.utils.validation import check_non_negative, check_positive

PathLike = Union[str, Path]


@dataclass(frozen=True)
class FaultConfig:
    """Everything needed to derive a deterministic fault plan for a run.

    Parameters
    ----------
    profile:
        Name of a registered fault profile (``repro-ones fault-profiles``
        lists them); ``"none"`` disables injection.
    seed:
        Seed of the profile's own RNG — independent of the trace /
        scheduler seed so fault weather can be varied (or held fixed)
        orthogonally to the workload.
    mtbf_hours:
        Mean time between failures per node (``mtbf`` / ``stragglers``)
        or per rack (``rack``).
    repair_minutes:
        Mean repair / maintenance-window duration.
    rack_size:
        Nodes per failure domain for the ``rack`` profile.
    maintenance_interval_hours:
        Period of the rolling ``maintenance`` windows.
    degrade_factor / degrade_minutes:
        Straggler throughput multiplier and episode length.
    max_down_fraction:
        Capacity floor: profiles never take down more than this fraction
        of the nodes at once (and always leave at least one node up).
    restart_delay_multiplier:
        Scales the per-model checkpoint-restart cost charged when an
        evicted job is restarted (see :mod:`repro.faults.costs`).
    lost_work_fraction:
        Fraction of the progress since the last epoch boundary (the
        implicit checkpoint) that an eviction destroys; 1.0 means jobs
        roll all the way back to the boundary.
    injections:
        Explicit plan entries (e.g. parsed from JSON).  When non-empty
        they take precedence over the profile.
    """

    profile: str = "none"
    seed: int = 2021
    mtbf_hours: float = 2.0
    repair_minutes: float = 15.0
    rack_size: int = 2
    maintenance_interval_hours: float = 6.0
    degrade_factor: float = 0.5
    degrade_minutes: float = 20.0
    max_down_fraction: float = 0.5
    restart_delay_multiplier: float = 1.0
    lost_work_fraction: float = 1.0
    injections: Tuple[FaultInjection, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "profile", str(self.profile).lower().strip() or "none")
        object.__setattr__(self, "seed", int(self.seed))
        check_positive(self.mtbf_hours, "mtbf_hours")
        check_positive(self.repair_minutes, "repair_minutes")
        if int(self.rack_size) < 1:
            raise ValueError("rack_size must be >= 1")
        object.__setattr__(self, "rack_size", int(self.rack_size))
        check_positive(self.maintenance_interval_hours, "maintenance_interval_hours")
        if not 0.0 < float(self.degrade_factor) <= 1.0:
            raise ValueError("degrade_factor must be in (0, 1]")
        check_positive(self.degrade_minutes, "degrade_minutes")
        if not 0.0 < float(self.max_down_fraction) <= 1.0:
            raise ValueError("max_down_fraction must be in (0, 1]")
        check_non_negative(self.restart_delay_multiplier, "restart_delay_multiplier")
        if not 0.0 <= float(self.lost_work_fraction) <= 1.0:
            raise ValueError("lost_work_fraction must be in [0, 1]")
        object.__setattr__(self, "injections", tuple(self.injections))

    # -- state queries ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether this config injects anything at all."""
        return self.profile != "none" or bool(self.injections)

    def describe(self) -> str:
        """Compact label used in logs, cell labels and report tables."""
        if not self.enabled:
            return "none"
        if self.injections:
            return f"plan-{self.config_key()[:8]}"
        return f"{self.profile}-s{self.seed}"

    def build_plan(self, num_nodes: int, horizon: float) -> FaultPlan:
        """The deterministic :class:`FaultPlan` for one cluster/horizon."""
        from repro.faults.profiles import build_plan

        return build_plan(self, num_nodes, horizon)

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        payload: Dict[str, object] = {
            "profile": self.profile,
            "seed": int(self.seed),
            "mtbf_hours": float(self.mtbf_hours),
            "repair_minutes": float(self.repair_minutes),
            "rack_size": int(self.rack_size),
            "maintenance_interval_hours": float(self.maintenance_interval_hours),
            "degrade_factor": float(self.degrade_factor),
            "degrade_minutes": float(self.degrade_minutes),
            "max_down_fraction": float(self.max_down_fraction),
            "restart_delay_multiplier": float(self.restart_delay_multiplier),
            "lost_work_fraction": float(self.lost_work_fraction),
        }
        if self.injections:
            payload["injections"] = [inj.to_dict() for inj in self.injections]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultConfig":
        """Rebuild a :class:`FaultConfig` from :meth:`to_dict` output."""
        return cls(
            profile=str(payload.get("profile", "none")),
            seed=int(payload.get("seed", 2021)),
            mtbf_hours=float(payload.get("mtbf_hours", 2.0)),
            repair_minutes=float(payload.get("repair_minutes", 15.0)),
            rack_size=int(payload.get("rack_size", 2)),
            maintenance_interval_hours=float(
                payload.get("maintenance_interval_hours", 6.0)
            ),
            degrade_factor=float(payload.get("degrade_factor", 0.5)),
            degrade_minutes=float(payload.get("degrade_minutes", 20.0)),
            max_down_fraction=float(payload.get("max_down_fraction", 0.5)),
            restart_delay_multiplier=float(payload.get("restart_delay_multiplier", 1.0)),
            lost_work_fraction=float(payload.get("lost_work_fraction", 1.0)),
            injections=tuple(
                FaultInjection.from_dict(entry)
                for entry in payload.get("injections", [])
            ),
        )

    def config_key(self) -> str:
        """Content hash of the config (folds into experiment cell keys)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- constructors -------------------------------------------------------------------

    @classmethod
    def from_plan_file(cls, path: PathLike, **overrides) -> "FaultConfig":
        """A config replaying an explicit JSON plan (``FaultPlan.load``'s format)."""
        plan = FaultPlan.load(path)
        return cls(profile="plan", injections=plan.injections, **overrides)

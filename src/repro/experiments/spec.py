"""Declarative experiment specifications.

A :class:`RunSpec` fully determines ONE simulation cell — which
scheduler (by registry name), on how many GPUs, with which trace and
simulation configuration, and under which seed.  Because the spec is
plain data (JSON-serializable, content-hashable via :meth:`RunSpec.cell_key`),
a cell can be shipped to a worker process, cached on disk, and re-run
bit-identically: the simulation is a pure function of its spec.

An :class:`ExperimentSpec` describes a *grid* — schedulers x capacities
x seeds x trace configs — and :meth:`ExperimentSpec.expand`\\ s it into
the individual cells in a deterministic order.  The paper's evaluations
are instances of this grid:

* Fig. 15 / Table 4: four schedulers x one capacity x one trace,
* Fig. 17/18: four schedulers x {16, 32, 48, 64} GPUs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from dataclasses import replace as _dc_replace

from repro.faults.config import FaultConfig
from repro.sim.simulator import SimulationConfig
from repro.utils.validation import check_positive_int
from repro.workload.trace import TraceConfig

#: Bumped whenever the serialized layout of specs/artifacts changes.
#: v2: ``SimulationConfig.collect_profile`` + ``SimulationResult.profile``
#: (per-phase wall-clock profiling threaded through run specs).
#: v3: fault injection — optional ``FaultConfig`` inside
#: ``SimulationConfig`` (and hence inside ``cell_key()``), a ``faults``
#: grid axis on ``ExperimentSpec``, and recovery metrics in
#: ``SimulationResult.faults``.  Zero-fault payloads are byte-identical
#: to v2, so v2 cell keys (and cached artifacts) remain valid.
SCHEMA_VERSION = 3


def _canonical_json(payload: object) -> str:
    """Canonical JSON used for content keys (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to execute one simulation cell.

    ``scheduler`` is a registry name (see :mod:`repro.experiments.registry`);
    ``scheduler_options`` are JSON-friendly keyword options forwarded to
    the registered factory (e.g. ``{"population_size": 4}`` for ONES).
    The trace is *generated* from ``trace`` + ``seed`` inside the worker
    executing the cell, so the spec stays tiny and self-contained.
    """

    scheduler: str
    num_gpus: int = 64
    seed: int = 2021
    trace: TraceConfig = field(default_factory=TraceConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    scheduler_options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.scheduler or not str(self.scheduler).strip():
            raise ValueError("scheduler must be a non-empty registry name")
        check_positive_int(self.num_gpus, "num_gpus")
        check_positive_int(self.seed, "seed")
        object.__setattr__(self, "scheduler_options", dict(self.scheduler_options))

    def label(self) -> str:
        """Compact human-readable cell label used in logs and progress lines."""
        label = f"{self.scheduler}@{self.num_gpus}g/seed{self.seed}"
        if self.simulation.faults is not None:
            label += f"/faults:{self.simulation.faults.describe()}"
        return label

    @property
    def faults(self) -> Optional[FaultConfig]:
        """The cell's fault configuration (``None`` for a zero-fault cell)."""
        return self.simulation.faults

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`)."""
        return {
            "scheduler": str(self.scheduler),
            "num_gpus": int(self.num_gpus),
            "seed": int(self.seed),
            "trace": self.trace.to_dict(),
            "simulation": self.simulation.to_dict(),
            "scheduler_options": dict(self.scheduler_options),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunSpec":
        """Rebuild a :class:`RunSpec` from :meth:`to_dict` output."""
        return cls(
            scheduler=str(payload["scheduler"]),
            num_gpus=int(payload["num_gpus"]),
            seed=int(payload["seed"]),
            trace=TraceConfig.from_dict(payload["trace"]),
            simulation=SimulationConfig.from_dict(payload["simulation"]),
            scheduler_options=dict(payload.get("scheduler_options", {})),
        )

    def cell_key(self) -> str:
        """Content hash of the cell; the cache key for resume-able sweeps.

        Any change to the spec (scheduler, options, capacity, seed, trace
        or simulation parameters) changes the key, so cached artifacts can
        never be served for a different experiment.
        """
        digest = hashlib.sha256(_canonical_json(self.to_dict()).encode()).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative grid of runs: schedulers x capacities x seeds x traces.

    ``scheduler_options`` maps a scheduler name to the options every cell
    of that scheduler receives (e.g. scale ONES's population down for a
    smoke grid).  :meth:`expand` produces the cells in a fixed order —
    fault configs (outermost), then traces, capacities, seeds,
    schedulers (inner) — which is also the execution/submission order of
    every backend, so results line up deterministically regardless of
    how the grid is executed.  The default ``faults`` axis is the single
    entry ``None`` (no injection), under which the expansion — and every
    cell key — is exactly the historical v2 grid.  Adding a
    :class:`~repro.faults.config.FaultConfig` next to ``None`` turns any
    experiment into a robustness benchmark: every faulted cell has its
    zero-fault *twin* in the same sweep, which is what the recovery
    aggregations on :class:`~repro.experiments.artifacts.SweepArtifact`
    compare against.
    """

    schedulers: Tuple[str, ...]
    capacities: Tuple[int, ...] = (64,)
    seeds: Tuple[int, ...] = (2021,)
    traces: Tuple[TraceConfig, ...] = field(default_factory=lambda: (TraceConfig(),))
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    scheduler_options: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    faults: Tuple[Optional[FaultConfig], ...] = (None,)
    #: Grid axis over per-scheduler option overlays.  Each entry is a
    #: ``{scheduler name: {option: value}}`` mapping merged on top of the
    #: shared ``scheduler_options`` for every cell of that axis value —
    #: e.g. ``({"ONES-hier": {"partition_size": 64}},
    #: {"ONES-hier": {"partition_size": 128}})`` sweeps the hierarchy's
    #: shard size.  The default single empty overlay reproduces the
    #: historical grid exactly (and is omitted from serialization, so
    #: existing sweep keys are unchanged).
    option_axis: Tuple[Mapping[str, Mapping[str, object]], ...] = ({},)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schedulers", tuple(str(s) for s in self.schedulers))
        object.__setattr__(self, "capacities", tuple(int(c) for c in self.capacities))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        traces = tuple(self.traces)
        object.__setattr__(self, "traces", traces)
        # Disabled fault configs are the same cell as no fault config at
        # all (SimulationConfig normalises them away) — fold them to None
        # here so the duplicate check below sees the collision.
        faults = tuple(
            fault if fault is not None and fault.enabled else None
            for fault in self.faults
        )
        if self.simulation.faults is not None:
            # A fault config on the shared simulation is hoisted onto the
            # faults axis, so every aggregation keyed by the axis (the
            # SweepArtifact index, twin lookups, ...) sees it.  Expansion
            # re-applies it per cell, so the cells are unchanged.
            if faults != (None,):
                raise ValueError(
                    "set fault configs either on the faults axis or on the shared "
                    "simulation config, not both"
                )
            faults = (self.simulation.faults,)
            object.__setattr__(
                self, "simulation", _dc_replace(self.simulation, faults=None)
            )
        object.__setattr__(self, "faults", faults)
        object.__setattr__(
            self,
            "scheduler_options",
            {str(name): dict(options) for name, options in self.scheduler_options.items()},
        )
        option_axis = tuple(
            {str(name): dict(options) for name, options in entry.items()}
            for entry in self.option_axis
        )
        if not option_axis:
            raise ValueError("option_axis must not be empty")
        overlay_keys = [_canonical_json(entry) for entry in option_axis]
        if len(set(overlay_keys)) != len(overlay_keys):
            raise ValueError("option_axis contains duplicates")
        object.__setattr__(self, "option_axis", option_axis)
        for label, values in (
            ("schedulers", self.schedulers),
            ("capacities", self.capacities),
            ("seeds", self.seeds),
            ("traces", traces),
            ("faults", faults),
        ):
            if not values:
                raise ValueError(f"{label} must not be empty")
            if len(set(values)) != len(values):
                raise ValueError(f"{label} contains duplicates")
        unknown = set(self.scheduler_options) - set(self.schedulers)
        for entry in option_axis:
            unknown |= set(entry) - set(self.schedulers)
        if unknown:
            raise ValueError(
                f"scheduler_options for schedulers not in the grid: {sorted(unknown)}"
            )

    # -- grid expansion -----------------------------------------------------------------

    def _cell_simulation(self, fault: Optional[FaultConfig]) -> SimulationConfig:
        """The shared simulation config with one fault-axis value applied."""
        if fault is None:
            return self.simulation
        return _dc_replace(self.simulation, faults=fault)

    def options_for(
        self, scheduler: str, overlay: Mapping[str, Mapping[str, object]]
    ) -> Dict[str, object]:
        """Shared options for ``scheduler`` with one option-axis overlay applied."""
        options = dict(self.scheduler_options.get(scheduler, {}))
        options.update(overlay.get(scheduler, {}))
        return options

    def cell(
        self,
        scheduler: str,
        capacity: int,
        seed: int,
        trace: TraceConfig,
        fault: Optional[FaultConfig] = None,
        overlay: Optional[Mapping[str, Mapping[str, object]]] = None,
    ) -> RunSpec:
        """The cell at one value of every axis (``overlay``: an option-axis entry)."""
        return RunSpec(
            scheduler=scheduler,
            num_gpus=capacity,
            seed=seed,
            trace=trace,
            simulation=self._cell_simulation(fault),
            scheduler_options=self.options_for(scheduler, overlay or {}),
        )

    def expand(self) -> List[RunSpec]:
        """The distinct cells of the grid, in deterministic order.

        An option-axis overlay that leaves a scheduler's options as they
        are yields that scheduler's cells again; each cell (by
        :meth:`RunSpec.cell_key`) is kept at its first occurrence only.
        """
        cells: Dict[str, RunSpec] = {}
        for fault in self.faults:
            for overlay in self.option_axis:
                for trace in self.traces:
                    for capacity in self.capacities:
                        for seed in self.seeds:
                            for scheduler in self.schedulers:
                                cell = self.cell(scheduler, capacity, seed, trace, fault, overlay)
                                cells.setdefault(cell.cell_key(), cell)
        return list(cells.values())

    @property
    def num_cells(self) -> int:
        """Number of distinct cells the grid expands to."""
        return len(self.expand())

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation, hashed by :meth:`sweep_key`.

        Like the cell serialization, the ``faults`` axis is only present
        when it differs from the zero-fault default, so sweep keys of
        historical grids are unchanged.
        """
        payload: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "schedulers": list(self.schedulers),
            "capacities": list(self.capacities),
            "seeds": list(self.seeds),
            "traces": [trace.to_dict() for trace in self.traces],
            "simulation": self.simulation.to_dict(),
            "scheduler_options": {
                name: dict(options) for name, options in self.scheduler_options.items()
            },
        }
        if self.faults != (None,):
            payload["faults"] = [
                fault.to_dict() if fault is not None else None for fault in self.faults
            ]
        if self.option_axis != ({},):
            payload["option_axis"] = [
                {name: dict(options) for name, options in entry.items()}
                for entry in self.option_axis
            ]
        return payload

    def sweep_key(self) -> str:
        """Content hash of the whole grid (names the sweep artifact on disk)."""
        digest = hashlib.sha256(_canonical_json(self.to_dict()).encode()).hexdigest()
        return digest[:16]

    # -- convenience constructors -------------------------------------------------------

    @classmethod
    def comparison(
        cls,
        schedulers: Optional[Sequence[str]] = None,
        num_gpus: int = 64,
        seed: int = 2021,
        trace: TraceConfig | None = None,
        simulation: SimulationConfig | None = None,
        scheduler_options: Mapping[str, Mapping[str, object]] | None = None,
        faults: "Optional[FaultConfig]" = None,
    ) -> "ExperimentSpec":
        """The paper's main comparison (Fig. 15 / Table 4) as a one-capacity grid.

        ``schedulers`` defaults to the registry's paper set (the Fig. 15
        four), so the registry stays the single source of truth.  Passing
        a ``faults`` config turns the comparison into a robustness
        benchmark: the grid runs every scheduler twice, once clean and
        once under the fault profile, so recovery metrics always have
        their zero-fault twin.
        """
        return cls(
            schedulers=_default_schedulers(schedulers),
            capacities=(num_gpus,),
            seeds=(seed,),
            traces=(trace or TraceConfig(),),
            simulation=simulation or SimulationConfig(),
            scheduler_options=scheduler_options or {},
            faults=_fault_axis(faults),
        )

def _fault_axis(faults: Optional[FaultConfig]) -> Tuple[Optional[FaultConfig], ...]:
    """``None`` -> the zero-fault axis; a config -> (clean twin, faulted)."""
    if faults is None or not faults.enabled:
        return (None,)
    return (None, faults)


def _default_schedulers(schedulers: Optional[Sequence[str]]) -> tuple:
    """``schedulers`` as a tuple, defaulting to the registry's paper set."""
    if schedulers is not None:
        return tuple(schedulers)
    # Imported lazily: the spec layer is pure data and must not pull the
    # scheduler implementations in at module-import time.
    from repro.experiments.registry import paper_schedulers

    return paper_schedulers()

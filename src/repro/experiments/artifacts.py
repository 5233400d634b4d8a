"""Serializable experiment results: run and sweep artifacts.

A :class:`RunArtifact` pairs the :class:`~repro.experiments.spec.RunSpec`
that produced a simulation with the (job-less, JSON-round-trippable)
:class:`~repro.sim.simulator.SimulationResult` and a telemetry summary
computed while the live ``Job`` objects were still available.  Artifacts
are deliberately *pure data*: two executions of the same spec — in the
same process, in a worker of a process pool, or days apart on different
machines — produce equal artifacts, which is what the backend-parity
tests assert and what makes content-keyed caching sound.

A :class:`SweepArtifact` is the result of an expanded
:class:`~repro.experiments.spec.ExperimentSpec`: one artifact per cell,
in grid order, plus aggregation helpers for the paper's figures (mean
metric per capacity, relative JCT, ...).  A one-capacity comparison is
the slice :meth:`SweepArtifact.results_for` returns, read through
:mod:`repro.analysis.metrics`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis.metrics import mean_metric
from repro.experiments.spec import SCHEMA_VERSION, ExperimentSpec, RunSpec
from repro.faults.config import FaultConfig
from repro.sim.simulator import SimulationResult
from repro.sim.telemetry import summarize_run
from repro.workload.trace import TraceConfig

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RunArtifact:
    """The serializable outcome of executing one :class:`RunSpec` cell.

    ``error`` is set only on *dead-cell placeholders* — cells a queue
    sweep gave up on after exhausting their retry budget.  Placeholders
    keep the sweep's grid shape intact (one artifact per cell, in order)
    while making the failure impossible to miss: ``is_dead`` is True,
    the result carries no completed jobs, and the CLI turns any of them
    into a failure summary plus a non-zero exit.  Successful artifacts
    never set the field, so their serialized payloads are byte-identical
    to the historical schema.
    """

    spec: RunSpec
    result: SimulationResult
    telemetry: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    @classmethod
    def from_simulation(cls, spec: RunSpec, result: SimulationResult) -> "RunArtifact":
        """Build an artifact from a freshly-run simulation.

        The telemetry summary is computed *now*, while ``result`` still
        carries its live ``Job`` objects; the stored result is stripped
        down to its serializable core so artifacts from the serial and
        process-pool backends are indistinguishable.
        """
        telemetry = {
            key: (value if isinstance(value, str) else float(value))
            for key, value in summarize_run(result).as_dict().items()
        }
        return cls(
            spec=spec,
            result=SimulationResult.from_dict(result.to_dict()),
            telemetry=telemetry,
        )

    # -- metric views -------------------------------------------------------------------

    @property
    def is_dead(self) -> bool:
        """Whether this is a dead-cell placeholder (no simulation ran)."""
        return self.error is not None

    def mean(self, metric: str = "jct") -> float:
        """Mean of one per-job metric (``jct`` / ``execution_time`` / ``queuing_time``)."""
        return mean_metric(self.result, metric)

    @property
    def recovery(self) -> Dict[str, float]:
        """Recovery metrics of a faulted cell (empty for zero-fault cells).

        Keys come from :meth:`repro.faults.runtime.FaultRuntime.metrics`:
        ``goodput``, ``lost_gpu_seconds``, ``evictions``, ``restarts``,
        ``downtime_gpu_seconds``, ...
        """
        return dict(self.result.faults)

    def to_result(self) -> SimulationResult:
        """The underlying (job-less) simulation result."""
        return self.result

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (round-trips through :meth:`from_dict`).

        The ``error`` key appears only on dead-cell placeholders, so
        payloads of successful runs are byte-identical to the historical
        schema (and to every cached artifact on disk).
        """
        payload: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "cell_key": self.spec.cell_key(),
            "spec": self.spec.to_dict(),
            "result": self.result.to_dict(),
            "telemetry": dict(self.telemetry),
        }
        if self.error is not None:
            payload["error"] = str(self.error)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunArtifact":
        """Rebuild a :class:`RunArtifact` from :meth:`to_dict` output."""
        error = payload.get("error")
        return cls(
            spec=RunSpec.from_dict(payload["spec"]),
            result=SimulationResult.from_dict(payload["result"]),
            telemetry=dict(payload.get("telemetry", {})),
            error=None if error is None else str(error),
        )

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        """Deserialize from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def dead_cell_artifact(spec: RunSpec, error: str, attempts: int = 0) -> RunArtifact:
    """Placeholder artifact for a cell the queue gave up on.

    Carries the spec (so the sweep keeps its grid shape and cell lookup
    keeps working), an empty result under the spec's scheduler name, and
    the final error.  Aggregations skip dead cells; the CLI reports them
    and exits non-zero.
    """
    result = SimulationResult(
        scheduler_name=str(spec.scheduler),
        num_gpus=int(spec.num_gpus),
        completed={},
        incomplete=[],
        makespan=0.0,
        gpu_time_busy=0.0,
        gpu_time_total=0.0,
        num_reconfigurations=0,
        events_processed=0,
    )
    message = str(error)
    if attempts:
        message = f"{message} (after {int(attempts)} failed attempts)"
    return RunArtifact(spec=spec, result=result, telemetry={}, error=message)


@dataclass
class SweepArtifact:
    """All cell artifacts of one expanded :class:`ExperimentSpec` grid."""

    spec: ExperimentSpec
    runs: List[RunArtifact] = field(default_factory=list)

    def dead_runs(self) -> List[RunArtifact]:
        """The dead-cell placeholders of this sweep (empty when all ran)."""
        return [run for run in self.runs if run is not None and run.is_dead]

    # -- cell lookup --------------------------------------------------------------------

    def _index(self) -> Dict[str, RunArtifact]:
        """``cell key -> artifact``; cells are identified by :meth:`RunSpec.cell_key`.

        Built per call (the ``runs`` list is mutable) so aggregations over
        large grids stay linear instead of scanning once per cell.
        """
        return {run.spec.cell_key(): run for run in self.runs}

    def series(self) -> List[Tuple[str, str, int]]:
        """``(label, scheduler, option index)`` of every row a table shows.

        A scheduler gets one row per distinct set of options the
        option axis gives it, labelled ``name[option=value,...]`` by its
        overlay; a scheduler the axis leaves alone gets one row, labelled
        by its name.  Every table iterates these rows, so none averages
        over an axis value that another table breaks out.
        """
        rows: List[Tuple[str, str, int]] = []
        for name in self.spec.schedulers:
            seen: List[Dict[str, object]] = []
            for index, overlay in enumerate(self.spec.option_axis):
                options = self.spec.options_for(name, overlay)
                if options not in seen:
                    seen.append(options)
                    rows.append((_series_label(name, overlay.get(name)), name, index))
        return rows

    def _cell_run(
        self,
        index: Dict[str, RunArtifact],
        scheduler: str,
        capacity: int,
        seed: int,
        trace: TraceConfig,
        fault: Optional[FaultConfig],
        option_index: int,
    ) -> RunArtifact:
        cell = self.spec.cell(
            scheduler, capacity, seed, trace, fault, self.spec.option_axis[option_index]
        )
        run = index.get(cell.cell_key())
        if run is None:
            raise KeyError(f"no cell {cell.label()} with options {cell.scheduler_options}")
        return run

    def get(
        self,
        scheduler: str,
        capacity: Optional[int] = None,
        seed: Optional[int] = None,
        trace_index: int = 0,
        fault_index: int = 0,
        option_index: int = 0,
    ) -> RunArtifact:
        """The artifact of one cell (defaults: the first value of every axis)."""
        capacity = int(capacity if capacity is not None else self.spec.capacities[0])
        seed = int(seed if seed is not None else self.spec.seeds[0])
        return self._cell_run(
            self._index(),
            scheduler,
            capacity,
            seed,
            self.spec.traces[trace_index],
            self.spec.faults[fault_index],
            option_index,
        )

    def results_for(
        self,
        capacity: Optional[int] = None,
        seed: Optional[int] = None,
        trace_index: int = 0,
        fault_index: int = 0,
    ) -> Dict[str, SimulationResult]:
        """Per-row results (see :meth:`series`) of one (capacity, seed, trace, fault) slice.

        Defaults as in :meth:`get`, so ``results_for()`` on a
        one-capacity comparison grid is its zero-fault comparison.
        """
        index = self._index()
        capacity = int(capacity if capacity is not None else self.spec.capacities[0])
        seed = int(seed if seed is not None else self.spec.seeds[0])
        trace = self.spec.traces[trace_index]
        fault = self.spec.faults[fault_index]
        return {
            label: self._cell_run(index, name, capacity, seed, trace, fault, k).to_result()
            for label, name, k in self.series()
        }

    # -- aggregation (Fig. 17/18 views) -------------------------------------------------

    def mean_metric_table(
        self, metric: str = "jct", fault_index: int = 0
    ) -> Dict[str, Dict[int, float]]:
        """``row -> capacity -> mean(metric)`` averaged over seeds and traces.

        One row per :meth:`series` entry and one fault-axis slice at a
        time (default: the first entry, which is the zero-fault grid in
        every built-in construction) so a robustness sweep never silently
        mixes clean and faulted runs into one Fig. 17 table.
        """
        index = self._index()
        fault = self.spec.faults[fault_index]
        table: Dict[str, Dict[int, float]] = {}
        for label, name, k in self.series():
            table[label] = {}
            for capacity in self.spec.capacities:
                values = []
                for trace in self.spec.traces:
                    for seed in self.spec.seeds:
                        run = self._cell_run(index, name, capacity, seed, trace, fault, k)
                        if not run.is_dead:
                            values.append(run.mean(metric))
                if values:
                    table[label][capacity] = float(sum(values) / len(values))
        return table

    def relative_to(
        self, reference: str = "ONES", metric: str = "jct", fault_index: int = 0
    ) -> Dict[str, Dict[int, float]]:
        """``row -> capacity -> metric / reference-metric`` (Fig. 18 shape).

        ``reference`` names a :meth:`series` row.  The ratio is taken per
        (trace, seed, capacity) slice — i.e. against the reference run that
        saw exactly the same workload (and the same fault weather, selected
        by ``fault_index``) — and then averaged over seeds and traces.
        """
        rows = self.series()
        by_label = {label: (name, k) for label, name, k in rows}
        if reference not in by_label:
            raise KeyError(f"{reference!r} is not part of this sweep")
        ref_name, ref_k = by_label[reference]
        index = self._index()
        fault = self.spec.faults[fault_index]
        ratios: Dict[str, Dict[int, List[float]]] = {
            label: {capacity: [] for capacity in self.spec.capacities}
            for label, _, _ in rows
        }
        for trace in self.spec.traces:
            for capacity in self.spec.capacities:
                for seed in self.spec.seeds:
                    ref = self._cell_run(
                        index, ref_name, capacity, seed, trace, fault, ref_k
                    ).mean(metric)
                    if not ref > 0:
                        raise ValueError(
                            f"reference mean {metric} must be positive "
                            f"(capacity={capacity}, seed={seed})"
                        )
                    for label, name, k in rows:
                        run = self._cell_run(index, name, capacity, seed, trace, fault, k)
                        ratios[label][capacity].append(run.mean(metric) / ref)
        return {
            label: {
                capacity: float(sum(values) / len(values))
                for capacity, values in by_capacity.items()
                if values
            }
            for label, by_capacity in ratios.items()
        }

    # -- recovery aggregation (robustness-benchmark views) ------------------------------

    def fault_degradation(
        self, metric: str = "jct", fault_index: int = 1
    ) -> Dict[str, float]:
        """``row -> mean(metric under faults / metric of zero-fault twin)``.

        The JCT-degradation headline of a robustness benchmark: 1.0 means
        the scheduler fully absorbed the fault plan, 1.5 means average
        JCT grew 50% under it.  Each faulted cell is compared against the
        cell that differs *only* in its fault config (same scheduler,
        options, capacity, seed and trace), then ratios are averaged per
        :meth:`series` row.  Requires a sweep whose fault axis contains
        both the zero-fault entry and the selected faulted entry (the
        built-in constructors' ``faults=`` argument produces exactly that).
        """
        fault = self.spec.faults[fault_index]
        if fault is None:
            raise ValueError("fault_index selects the zero-fault axis entry")
        if None not in self.spec.faults:
            raise ValueError("sweep has no zero-fault twin cells to compare against")
        index = self._index()
        ratios: Dict[str, List[float]] = {}
        for label, name, k in self.series():
            ratios[label] = []
            for trace in self.spec.traces:
                for capacity in self.spec.capacities:
                    for seed in self.spec.seeds:
                        cell = (index, name, capacity, seed, trace)
                        clean = self._cell_run(*cell, None, k).mean(metric)
                        faulted = self._cell_run(*cell, fault, k).mean(metric)
                        if clean > 0:
                            ratios[label].append(faulted / clean)
        return {
            label: float(sum(values) / len(values))
            for label, values in ratios.items()
            if values
        }

    def recovery_table(self, fault_index: int = 1) -> List[Dict[str, object]]:
        """Per-cell recovery metrics of one faulted slice (report rows)."""
        fault = self.spec.faults[fault_index]
        if fault is None:
            raise ValueError("fault_index selects the zero-fault axis entry")
        rows: List[Dict[str, object]] = []
        for run in self.runs:
            if run.spec.faults != fault:
                continue
            recovery = run.recovery
            rows.append(
                {
                    "cell": run.spec.label(),
                    "average_jct": run.mean("jct"),
                    "goodput": recovery.get("goodput", float("nan")),
                    "evictions": int(recovery.get("evictions", 0)),
                    "restarts": int(recovery.get("restarts", 0)),
                    "lost_gpu_seconds": recovery.get("lost_gpu_seconds", 0.0),
                    "downtime_gpu_seconds": recovery.get("downtime_gpu_seconds", 0.0),
                    "incomplete": len(run.result.incomplete),
                }
            )
        return rows

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (what :meth:`save` writes)."""
        return {
            "schema": SCHEMA_VERSION,
            "sweep_key": self.spec.sweep_key(),
            "spec": self.spec.to_dict(),
            "runs": [run.to_dict() for run in self.runs],
        }

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path: PathLike) -> Path:
        """Write the artifact to ``path`` as JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path


def _series_label(name: str, options: Optional[Mapping[str, object]]) -> str:
    """A table row's label: the scheduler, plus its option-axis overlay if any."""
    if not options:
        return name
    return f"{name}[{','.join(f'{key}={value}' for key, value in sorted(options.items()))}]"

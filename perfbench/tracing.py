"""Spans around the public entry points of each ``src/repro`` layer.

The benchmark times each layer from outside the program: :func:`instrument`
replaces selected methods with wrappers that record one span per call
(name, start, end, parent span, and the id shared by every span of one
kernel event or one service submission), and :func:`layer_metrics` reduces
the spans to the per-layer table.  A layer's ``*_s`` metric is self time:
the span durations minus the time their child spans cover, so the self
times of all layers add up to the traced wall time.

Spans stay in memory while the workload runs and are written out as JSONL
afterwards.  Wrap targets missing from the program are skipped and listed
in the output, so a refactor that renames one only loses that row.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  ``run_generation`` is wrapped at
#: the name ``repro.core.evolution`` looks it up under.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.simulator", "ClusterSimulator.run", "sim.run"),
    ("repro.sim.kernel", "SimulationKernel.step", "sim.step"),
    ("repro.sim.handlers", "ArrivalHandler.handle", "sim.handler"),
    ("repro.sim.handlers", "EpochEndHandler.handle", "sim.handler"),
    ("repro.sim.handlers", "TimerHandler.handle", "sim.handler"),
    ("repro.sim.ledger", "ProgressLedger.advance_to", "sim.ledger_advance"),
    ("repro.sim.ledger", "ProgressLedger.materialize_all", "sim.materialize"),
    ("repro.sim.views", "PartitionViewFactory.view", "sim.views"),
    ("repro.cluster.allocation", "Allocation.validate", "cluster.validate"),
    ("repro.jobs.throughput", "ThroughputModel.throughput", "jobs.throughput"),
    ("repro.jobs.throughput", "ThroughputTable.__init__", "jobs.table_build"),
    ("repro.core.ones_scheduler", "ONESScheduler.on_job_arrival", "core.callback"),
    ("repro.core.ones_scheduler", "ONESScheduler.on_epoch_end", "core.callback"),
    ("repro.core.ones_scheduler", "ONESScheduler.on_job_completion", "core.callback"),
    ("repro.core.ones_scheduler", "ONESScheduler.on_fault", "core.callback"),
    ("repro.core.partitioned", "HierarchicalONESScheduler.on_job_arrival", "core.hier"),
    ("repro.core.partitioned", "HierarchicalONESScheduler.on_epoch_end", "core.hier"),
    ("repro.core.partitioned", "HierarchicalONESScheduler.on_job_completion", "core.hier"),
    ("repro.core.partitioned", "HierarchicalONESScheduler.on_fault", "core.hier"),
    ("repro.core.evolution", "EvolutionarySearch.step", "core.evolve"),
    ("repro.core.evolution", "run_generation", "core.generation"),
    ("repro.prediction.predictor", "ProgressPredictor.refit", "prediction.refit"),
    ("repro.prediction.predictor", "ProgressPredictor.progress_distributions", "prediction.predict"),
    ("repro.faults.handlers", "NodeDownHandler.handle", "faults.handler"),
    ("repro.faults.handlers", "NodeUpHandler.handle", "faults.handler"),
    ("repro.faults.handlers", "GpuDegradedHandler.handle", "faults.handler"),
    ("repro.service.engine", "SchedulerService.submit", "service.submit"),
    ("repro.service.engine", "SchedulerService.advance_to", "service.advance"),
    ("repro.service.engine", "SchedulerService.queue_depth", "service.queue_depth"),
    ("repro.service.engine", "SchedulerService.drain", "service.drain"),
    ("repro.service.streams", "StreamHub.publish", "service.publish"),
    ("repro.baselines.fifo", "FIFOScheduler.on_job_arrival", "baselines.callback"),
    ("repro.baselines.fifo", "FIFOScheduler.on_epoch_end", "baselines.callback"),
    ("repro.baselines.fifo", "FIFOScheduler.on_job_completion", "baselines.callback"),
    ("repro.baselines.fifo", "FIFOScheduler.on_fault", "baselines.callback"),
)

#: Span name -> the per-layer metric its self time is charged to.
SELF_TIME: Dict[str, str] = {
    "sim.run": "sim.kernel_s",
    "sim.step": "sim.kernel_s",
    "sim.handler": "sim.handler_s",
    "sim.ledger_advance": "sim.ledger_advance_s",
    "sim.materialize": "sim.materialize_s",
    "sim.views": "sim.views_s",
    "cluster.validate": "cluster.validate_s",
    "jobs.throughput": "jobs.throughput_s",
    "jobs.table_build": "jobs.throughput_s",
    "core.callback": "core.callback_s",
    "core.hier": "core.hier_s",
    "core.evolve": "core.evolve_s",
    "core.generation": "core.generation_s",
    "prediction.refit": "prediction.refit_s",
    "prediction.predict": "prediction.predict_s",
    "faults.handler": "faults.handler_s",
    "service.submit": "service.submit_s",
    "service.advance": "service.advance_s",
    "service.queue_depth": "service.queue_depth_s",
    "service.publish": "service.publish_s",
    "service.drain": "service.drain_s",
    "baselines.callback": "baselines.callback_s",
}

#: Span name -> the per-layer metric that counts its calls.
CALLS: Dict[str, str] = {
    "sim.views": "sim.views_built",
    "cluster.validate": "cluster.validates",
    "jobs.throughput": "jobs.throughput_calls",
    "jobs.table_build": "jobs.tables_built",
    "core.callback": "core.callbacks",
    "core.hier": "core.hier_callbacks",
    "core.generation": "core.generations",
    "prediction.refit": "prediction.refits",
    "prediction.predict": "prediction.predicts",
    "faults.handler": "faults.events",
    "service.submit": "service.submits",
    "baselines.callback": "baselines.callbacks",
}


#: Every per-layer metric that is a time (scaled to reference seconds).
TIMES: Tuple[str, ...] = tuple(sorted(set(SELF_TIME.values()))) + ("core.generation_ms",)


class SpanRecorder:
    """In-memory span store; one list per field keeps the wrappers cheap.

    ``clock`` times the spans: the speed probe's clock, which leaves the
    probe's own time out.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.origin = clock()
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ids: List[str] = []
        self.stack: List[int] = []
        #: Id stamped on new spans: ``e<k>`` while kernel event ``k`` is
        #: processed, ``s<n>`` inside the ``n``-th service submission.
        self.request = "e0"
        self.events = 0
        self.submissions = 0
        self.in_submission = False
        self.refit_failed = 0
        self.queue_depth_max = 0
        self.unwrapped: List[str] = []

    # -- request ids ------------------------------------------------------------------

    def _event_started(self) -> None:
        # The simulator advances the ledger exactly once per kernel event,
        # before the event's handler runs.
        self.events += 1
        if not self.in_submission:
            self.request = f"e{self.events}"

    def _submission_started(self) -> None:
        self.submissions += 1
        self.in_submission = True
        self.request = f"s{self.submissions}"

    def _submission_ended(self, _result) -> None:
        self.in_submission = False
        self.request = f"e{self.events}"

    def _refit_ended(self, fitted) -> None:
        if fitted is False:
            self.refit_failed += 1

    def _queue_depth_ended(self, depth) -> None:
        self.queue_depth_max = max(self.queue_depth_max, int(depth))

    # -- wrapping ---------------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_enter: Optional[Callable[[], None]] = None,
        on_exit: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call."""
        perf = self.clock
        names, starts, ends = self.names, self.starts, self.ends
        parents, ids, stack = self.parents, self.ids, self.stack
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ids.append(recorder.request)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()
            if on_exit is not None:
                on_exit(result)
            return result

        return wrapper

    def hooks_for(self, span: str):
        """(on_enter, on_exit) callbacks the wrapper of ``span`` runs."""
        return {
            "sim.ledger_advance": (self._event_started, None),
            "service.submit": (self._submission_started, self._submission_ended),
            "prediction.refit": (None, self._refit_ended),
            "service.queue_depth": (None, self._queue_depth_ended),
        }.get(span, (None, None))

    # -- export -----------------------------------------------------------------------

    def write_jsonl(self, path: Path, meta: Dict[str, object]) -> None:
        """Write a meta line, then one line per span (times relative to start)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.origin
        with path.open("w") as handle:
            handle.write(json.dumps({"meta": meta}) + "\n")
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start": self.starts[index] - origin,
                            "end": self.ends[index] - origin,
                            "parent": self.parents[index],
                            "id": self.ids[index],
                        }
                    )
                    + "\n"
                )


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Install every wrapper on an already-imported module; returns the undo."""
    undo: List[Tuple[object, str, object]] = []
    for module_name, path, span in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            # The workload never imported this layer: nothing of it can run.
            continue
        owner = module
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        original = getattr(owner, attribute, None) if owner is not None else None
        if original is None:
            recorder.unwrapped.append(f"{module_name}.{path}")
            continue
        on_enter, on_exit = recorder.hooks_for(span)
        setattr(owner, attribute, recorder.wrap(span, original, on_enter, on_exit))
        undo.append((owner, attribute, original))

    def restore() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return restore


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Self time per layer metric and call counts from the recorded spans."""
    names, starts, ends, parents = (
        recorder.names, recorder.starts, recorder.ends, recorder.parents,
    )
    covered = [0.0] * len(names)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    metrics: Dict[str, float] = {name: 0.0 for name in set(SELF_TIME.values())}
    metrics.update({name: 0 for name in CALLS.values()})
    generation_total = 0.0
    for index, name in enumerate(names):
        duration = ends[index] - starts[index]
        metrics[SELF_TIME[name]] += duration - covered[index]
        counter = CALLS.get(name)
        if counter is not None:
            metrics[counter] += 1
        if name == "core.generation":
            generation_total += duration
    generations = metrics["core.generations"]
    metrics["core.generation_ms"] = 1e3 * generation_total / generations if generations else 0.0
    metrics["prediction.refit_failed"] = recorder.refit_failed
    metrics["service.queue_depth_max"] = recorder.queue_depth_max
    return metrics


def self_time_total(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time (equals the spanned wall time)."""
    return sum(metrics[name] for name in set(SELF_TIME.values()))

#!/usr/bin/env python3
"""Record, inspect, and export a structured execution trace.

Every layer of the repro stack — the simulation kernel, the ONES
evolutionary search, the hierarchical reconciler, the fault handlers —
emits typed span/event records into one :class:`TraceRecorder` when a
recorder is installed.  This demo runs a small faulted hierarchical
simulation with tracing on, then walks through what the trace answers:

* *why* each reconfiguration happened (winning score, generations run,
  whether the allocation deployed),
* which shard evolved when, generation by generation,
* which jobs the reconciler assigned to which partition,
* what each fault evicted.

It finishes by exporting JSONL (the schema the ``repro-ones trace``
inspector reads) and Chrome ``trace_event`` JSON — open the latter at
https://ui.perfetto.dev to see the run on a timeline.

The same artifacts come out of the CLI without writing any code::

    repro-ones run --scheduler ones-hier --gpus 256 --trace-out run.jsonl
    repro-ones trace run.jsonl                 # summary tables
    repro-ones trace run.jsonl --tree          # nested span tree
    repro-ones trace run.jsonl --filter-cat ones --tree
    repro-ones trace run.jsonl --chrome run.chrome.json

Run with::

    python examples/trace_inspection_demo.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis.reporting import format_table
from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig
from repro.core.partitioned import HierarchicalConfig, HierarchicalONESScheduler
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind
from repro.obs.trace import (
    TraceRecorder,
    filter_records,
    format_tree,
    install_tracer,
    summarize,
    uninstall_tracer,
    validate_trace_file,
)
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator


def run_traced_simulation() -> TraceRecorder:
    """A small faulted hierarchical run with the recorder installed."""
    tracer = install_tracer(TraceRecorder())
    trace = TraceGenerator(
        TraceConfig(num_jobs=8, arrival_rate=1.0 / 15.0, convergence_patience=3),
        seed=17,
    ).generate()
    scheduler = HierarchicalONESScheduler(
        HierarchicalConfig(
            partitions=2,
            ones=ONESConfig(evolution=EvolutionConfig(population_size=4)),
        ),
        seed=2021,
    )
    faults = FaultConfig(
        injections=(
            FaultInjection(60.0, FaultKind.NODE_DOWN, 1),
            FaultInjection(300.0, FaultKind.NODE_UP, 1),
        )
    )
    result = ClusterSimulator(
        make_longhorn_cluster(16), scheduler, trace,
        config=SimulationConfig(faults=faults),
    ).run()
    uninstall_tracer()
    print(f"simulated {len(result.completed)} jobs, makespan "
          f"{result.makespan:.0f}s, {len(tracer)} trace records\n")
    return tracer


def show_summary(tracer: TraceRecorder) -> None:
    summary = summarize(tracer.records())
    print("=== record counts by category ===")
    print(format_table([
        {"category": cat, "records": count}
        for cat, count in summary["by_cat"].items()
    ]))
    print()


def show_reconfig_decisions(tracer: TraceRecorder) -> None:
    """Each deployment decision, with the evidence behind it."""
    decisions = filter_records(tracer.records(), name="reconfig_decision")
    print(f"=== reconfiguration decisions ({len(decisions)}) ===")
    rows = [
        {
            "t (s)": round(record["t"], 1),
            "shard": record["attrs"]["shard"],
            "score": round(record["attrs"]["score"], 4),
            "generations": record["attrs"]["generations"],
            "deployed": record["attrs"]["deployed"],
        }
        for record in decisions[:8]
    ]
    print(format_table(rows))
    if len(decisions) > 8:
        print(f"... and {len(decisions) - 8} more")
    print()


def show_fault_span_tree(tracer: TraceRecorder) -> None:
    """The nested view around the fault events."""
    faults = filter_records(tracer.records(), cat="fault")
    print(f"=== fault events ({len(faults)}) ===")
    for line in format_tree(faults, max_records=10):
        print(line)
    print()


def export_artifacts(tracer: TraceRecorder) -> None:
    out_dir = Path(tempfile.mkdtemp(prefix="repro-trace-"))
    jsonl = out_dir / "run.trace.jsonl"
    chrome = out_dir / "run.chrome.json"
    tracer.export_jsonl(str(jsonl))
    tracer.export_chrome(str(chrome))
    errors = validate_trace_file(str(jsonl))
    print("=== exports ===")
    print(f"JSONL ({'schema-valid' if not errors else 'INVALID'}): {jsonl}")
    print(f"  inspect with: repro-ones trace {jsonl} --tree")
    print(f"Chrome trace_event: {chrome}")
    print("  open at https://ui.perfetto.dev (or chrome://tracing)")


def main() -> None:
    tracer = run_traced_simulation()
    show_summary(tracer)
    show_reconfig_decisions(tracer)
    show_fault_span_tree(tracer)
    export_artifacts(tracer)


if __name__ == "__main__":
    main()

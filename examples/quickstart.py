#!/usr/bin/env python3
"""Quickstart: schedule a small trace with ONES on a simulated GPU cluster.

Run with::

    python examples/quickstart.py

The script resolves the ONES scheduler from the experiment registry by
name, generates a 10-job trace from the paper's Table-2 workload
catalogue, replays it on a 16-GPU Longhorn-like cluster through the
shared execution path (:func:`repro.experiments.simulate_trace`) and
prints per-job and aggregate scheduling metrics.  To run whole grids of
(scheduler x capacity x seed) cells — in parallel, with caching — see
``examples/compare_schedulers.py`` and the ``Runner`` API.
"""

from __future__ import annotations

from repro.analysis.reporting import format_table
from repro.cluster.topology import make_longhorn_cluster
from repro.experiments.backends import simulate_trace
from repro.experiments.registry import create_scheduler
from repro.sim.simulator import SimulationConfig
from repro.utils.units import format_duration
from repro.workload.trace import TraceConfig, TraceGenerator


def main() -> None:
    # 1. A cluster: 4 Longhorn nodes x 4 V100 GPUs.
    topology = make_longhorn_cluster(16)
    print(f"Cluster: {topology.describe()}")

    # 2. A workload trace drawn from the Table-2 catalogue.
    trace_config = TraceConfig(num_jobs=10, arrival_rate=1.0 / 20.0)
    trace = TraceGenerator(trace_config, seed=42).generate()
    print(f"Trace: {len(trace)} jobs, first arrival at t=0, "
          f"last at t={trace[-1].arrival_time:.0f}s")

    # 3. The ONES scheduler, resolved from the registry by name
    #    (small population so the example runs in seconds).
    scheduler = create_scheduler("ONES", seed=42, population_size=8)

    # 4. Replay the trace.
    result = simulate_trace(
        scheduler, trace, num_gpus=16, simulation=SimulationConfig(max_time=24 * 3600)
    )

    # 5. Report.
    rows = []
    for job_id in sorted(result.completed):
        job = result.jobs[job_id]
        metrics = result.completed[job_id]
        max_batch = max((b for _, b in job.batch_history), default=0)
        rows.append(
            {
                "job": job_id,
                "task": job.spec.task,
                "submitted B": job.spec.base_batch,
                "max B": max_batch,
                "epochs": int(metrics["epochs"]),
                "JCT": format_duration(metrics["jct"]),
                "exec": format_duration(metrics["execution_time"]),
                "queue": format_duration(metrics["queuing_time"]),
            }
        )
    print()
    print(format_table(rows))
    print()
    summary = result.summary()
    print(f"Average JCT       : {summary['average_jct']:.1f} s")
    print(f"Average execution : {summary['average_execution_time']:.1f} s")
    print(f"Average queuing   : {summary['average_queuing_time']:.1f} s")
    print(f"GPU utilisation   : {100 * summary['gpu_utilization']:.1f} %")
    print(f"Re-configurations : {summary['reconfigurations']}")
    print()
    print(f"Scheduler internals: {scheduler.describe_state()}")


if __name__ == "__main__":
    main()

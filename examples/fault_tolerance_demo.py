#!/usr/bin/env python3
"""Fault injection walkthrough: outages, recovery and the elasticity edge.

The demo:

1. builds a deterministic fault plan — both from a seeded MTBF profile
   and by hand — and shows it is reproducible and content-keyed,
2. replays one explicit node outage under ONES and FIFO on the same
   trace and compares evictions, restarts, goodput and JCT against the
   zero-fault twin runs,
3. runs a seeded robustness grid through the experiment Runner and
   prints the per-scheduler JCT degradation (the Fig. 15 harness as a
   robustness benchmark).

Run with::

    python examples/fault_tolerance_demo.py
"""

from __future__ import annotations

import warnings

from repro.analysis.reporting import format_table
from repro.cluster.topology import make_longhorn_cluster
from repro.experiments.orchestrator import Runner
from repro.experiments.registry import create_scheduler
from repro.experiments.spec import ExperimentSpec
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator

warnings.filterwarnings("ignore", message="Covariance of the parameters")

TRACE = TraceConfig(num_jobs=6, arrival_rate=1.0 / 15.0, convergence_patience=4)


def demo_plans() -> None:
    print("=== 1. Deterministic fault plans ===")
    config = FaultConfig(profile="mtbf", seed=7, mtbf_hours=0.5, repair_minutes=10)
    plan = config.build_plan(num_nodes=4, horizon=4 * 3600.0)
    print(f"mtbf profile (seed 7): {len(plan)} injections, "
          f"counts {plan.counts()}, key {plan.plan_key()[:12]}")
    again = config.build_plan(num_nodes=4, horizon=4 * 3600.0)
    print(f"regenerated plan identical: {plan == again}")

    explicit = FaultConfig(
        injections=(
            FaultInjection(120.0, FaultKind.NODE_DOWN, 0),
            FaultInjection(720.0, FaultKind.NODE_UP, 0),
        )
    )
    print(f"hand-written outage: node 0 down 120s..720s "
          f"(config key {explicit.config_key()[:12]})")


def _run(scheduler_name: str, faults: FaultConfig | None):
    scheduler = create_scheduler(
        scheduler_name, 2021, **({"population_size": 6} if scheduler_name == "ONES" else {})
    )
    trace = TraceGenerator(TRACE, seed=17).generate()
    simulator = ClusterSimulator(
        make_longhorn_cluster(16),
        scheduler,
        trace,
        config=SimulationConfig(faults=faults),
    )
    return simulator.run()


def demo_single_outage() -> None:
    print()
    print("=== 2. One node outage: ONES vs FIFO on the same trace ===")
    outage = FaultConfig(
        injections=(
            FaultInjection(120.0, FaultKind.NODE_DOWN, 0),
            FaultInjection(720.0, FaultKind.NODE_UP, 0),
        )
    )
    rows = []
    for name in ("ONES", "FIFO"):
        clean = _run(name, None)
        faulted = _run(name, outage)
        rows.append({
            "scheduler": name,
            "clean_jct": round(clean.average_jct, 1),
            "faulted_jct": round(faulted.average_jct, 1),
            "degradation": round(faulted.average_jct / clean.average_jct, 2),
            "evictions": int(faulted.faults["evictions"]),
            "restarts": int(faulted.faults["restarts"]),
            "goodput": round(faulted.faults["goodput"], 3),
        })
    print(format_table(rows))
    print("The outage evicts whichever jobs held node 0; every scheduler")
    print("re-places them through its normal policy path — elastic")
    print("re-configuration is what keeps the ONES degradation low.")


def demo_robustness_grid() -> None:
    print()
    print("=== 3. A robustness grid through the experiment Runner ===")
    spec = ExperimentSpec(
        schedulers=("ONES", "FIFO"),
        capacities=(16,),
        seeds=(7,),
        traces=(TRACE,),
        scheduler_options={"ONES": {"population_size": 6}},
        faults=(None, FaultConfig(profile="mtbf", seed=3, mtbf_hours=0.3,
                                  repair_minutes=8)),
    )
    runner = Runner()
    sweep = runner.run(spec)
    print(f"[runner] {runner.stats.describe()}")
    print("JCT degradation vs zero-fault twin (1.0 = fully absorbed):")
    for name, ratio in sorted(sweep.fault_degradation("jct").items(), key=lambda kv: kv[1]):
        print(f"  {name:6s}: {ratio:5.2f}x")
    print()
    print(format_table([
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in row.items()}
        for row in sweep.recovery_table()
    ]))


def main() -> None:
    demo_plans()
    demo_single_outage()
    demo_robustness_grid()


if __name__ == "__main__":
    main()

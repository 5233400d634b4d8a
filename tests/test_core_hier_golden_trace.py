"""Golden-trace regression for hierarchical ONES under node faults.

The flat golden trace (``test_core_golden_trace.py``) never reaches the
reconciler.  This one pins a faulted ONES-hier run that does: two
16-GPU partitions, an ``mtbf`` fault plan that takes nodes down and
brings them back (view swaps, evictions), and one gang wider than a
partition, so whole-node reservations, partition drains and wide
placements all run.  The fixture holds per-job completion metrics, the
makespan and the fault and reconciler counters; any change that alters
the trajectory fails here.

If a change *intentionally* alters trajectories, regenerate the fixture
and call the change out:

    PYTHONPATH=src python -m tests.test_core_hier_golden_trace --regen
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster.topology import make_longhorn_cluster
from repro.core.partitioned import HierarchicalConfig, HierarchicalONESScheduler
from repro.faults.config import FaultConfig
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator

warnings.filterwarnings("ignore", message="Covariance of the parameters")

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden_ones_hier_trace.json"

#: Pinned scenario: 32 GPUs in two 16-GPU shards, ten jobs, one of them a
#: 24-GPU gang, and a node failing every ~15 minutes on average.
GOLDEN_NUM_GPUS = 32
GOLDEN_PARTITION_SIZE = 16
GOLDEN_NUM_JOBS = 10
GOLDEN_WIDE_JOB = 2
GOLDEN_WIDE_GPUS = 24
GOLDEN_TRACE_SEED = 17
GOLDEN_SEED = 2021
GOLDEN_FAULTS = FaultConfig(
    profile="mtbf", seed=7, mtbf_hours=0.25, repair_minutes=3.0
)


def golden_trace():
    """The pinned job trace, with its one partition-wide gang."""
    config = TraceConfig(
        num_jobs=GOLDEN_NUM_JOBS, arrival_rate=1.0 / 20.0, convergence_patience=3
    )
    trace = TraceGenerator(config, seed=GOLDEN_TRACE_SEED).generate()
    trace[GOLDEN_WIDE_JOB] = replace(
        trace[GOLDEN_WIDE_JOB], requested_gpus=GOLDEN_WIDE_GPUS
    )
    return trace


def golden_simulator() -> ClusterSimulator:
    """The pinned faulted ONES-hier simulation, ready to run."""
    scheduler = HierarchicalONESScheduler(
        HierarchicalConfig(partition_size=GOLDEN_PARTITION_SIZE), seed=GOLDEN_SEED
    )
    return ClusterSimulator(
        make_longhorn_cluster(GOLDEN_NUM_GPUS),
        scheduler,
        golden_trace(),
        config=SimulationConfig(faults=GOLDEN_FAULTS),
    )


def _snapshot(simulator: ClusterSimulator, result) -> dict:
    """The JSON-serialisable trajectory summary the fixture pins.

    Floats round-trip exactly through JSON (shortest-repr), so equality
    below is bit-equality of the simulated trajectory.
    """
    scheduler = simulator.scheduler
    return {
        "scenario": {
            "num_gpus": GOLDEN_NUM_GPUS,
            "partition_size": GOLDEN_PARTITION_SIZE,
            "num_jobs": GOLDEN_NUM_JOBS,
            "wide_gpus": GOLDEN_WIDE_GPUS,
            "seed": GOLDEN_SEED,
            "faults": GOLDEN_FAULTS.to_dict(),
        },
        "makespan": result.makespan,
        "events_processed": result.events_processed,
        "num_reconfigurations": result.num_reconfigurations,
        "wide_placements": scheduler.num_wide_placements,
        "faults": dict(sorted(result.faults.items())),
        "incomplete": sorted(result.incomplete),
        "completed": {
            job_id: dict(sorted(metrics.items()))
            for job_id, metrics in sorted(result.completed.items())
        },
    }


def _simulate() -> dict:
    simulator = golden_simulator()
    return _snapshot(simulator, simulator.run())


def test_golden_ones_hier_trajectory():
    if not FIXTURE.exists():  # pragma: no cover - only before first regen
        pytest.fail(
            "golden fixture missing; generate it with "
            "`PYTHONPATH=src python -m tests.test_core_hier_golden_trace --regen`"
        )
    golden = json.loads(FIXTURE.read_text())
    snapshot = _simulate()
    # The scenario must keep exercising what it was chosen for.
    assert snapshot["faults"]["node_down_events"] > 0
    assert snapshot["wide_placements"] >= 1
    assert snapshot == golden, (
        "the pinned-seed ONES-hier trajectory changed; if intentional, "
        "regenerate with `PYTHONPATH=src python -m "
        "tests.test_core_hier_golden_trace --regen` and document the change"
    )


def main(argv):  # pragma: no cover - manual regeneration entry point
    if "--regen" not in argv:
        print(__doc__)
        return 1
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(_simulate(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))

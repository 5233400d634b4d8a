"""Golden-trace regression: a pinned-seed ONES simulation never drifts silently.

The evolution operators are bit-exact by design (the generation kernel
is differentially tested against the scalar oracle), so a small pinned
simulation is fully deterministic.  This test replays it and compares
per-job completion metrics and the makespan against a checked-in JSON
fixture — any future operator change that silently alters trajectories
(an off-by-one in a fill round, a reordered RNG draw, a tie-break flip)
fails loudly here instead of surfacing as an unexplained benchmark
shift three PRs later.

If a change *intentionally* alters trajectories, regenerate the fixture
and call the change out in the PR:

    PYTHONPATH=src python -m tests.test_core_golden_trace --regen
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.workload.trace import TraceConfig, TraceGenerator

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "golden_ones_trace.json"

#: Pinned scenario: small enough to replay in ~a second, busy enough to
#: exercise arrivals, preemption, elastic resizing and completions.
GOLDEN_NUM_GPUS = 8
GOLDEN_NUM_JOBS = 6
GOLDEN_SEED = 2021


def _simulate():
    trace = TraceGenerator(
        TraceConfig(num_jobs=GOLDEN_NUM_JOBS, arrival_rate=1.0 / 30.0), seed=GOLDEN_SEED
    ).generate()
    return simulate_trace(ONESScheduler(ONESConfig(), seed=GOLDEN_SEED), trace, GOLDEN_NUM_GPUS)


def _snapshot(result) -> dict:
    """The JSON-serialisable trajectory summary the fixture pins.

    Floats round-trip exactly through JSON (shortest-repr), so equality
    below is bit-equality of the simulated trajectory.
    """
    return {
        "scenario": {
            "num_gpus": GOLDEN_NUM_GPUS,
            "num_jobs": GOLDEN_NUM_JOBS,
            "seed": GOLDEN_SEED,
        },
        "makespan": result.makespan,
        "events_processed": result.events_processed,
        "num_reconfigurations": result.num_reconfigurations,
        "incomplete": sorted(result.incomplete),
        "completed": {
            job_id: dict(sorted(metrics.items()))
            for job_id, metrics in sorted(result.completed.items())
        },
    }


def test_golden_ones_trajectory():
    if not FIXTURE.exists():  # pragma: no cover - only before first regen
        pytest.fail(
            f"golden fixture missing; generate it with "
            f"`PYTHONPATH=src python -m tests.test_core_golden_trace --regen`"
        )
    golden = json.loads(FIXTURE.read_text())
    snapshot = _snapshot(_simulate())
    assert snapshot == golden, (
        "the pinned-seed ONES trajectory changed; if intentional, regenerate "
        "with `PYTHONPATH=src python -m tests.test_core_golden_trace --regen` "
        "and document the behaviour change in the PR"
    )


def main(argv):  # pragma: no cover - manual regeneration entry point
    if "--regen" not in argv:
        print(__doc__)
        return 1
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    snapshot = _snapshot(_simulate())
    FIXTURE.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))

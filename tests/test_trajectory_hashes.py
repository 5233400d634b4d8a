"""Every registry scheduler's trajectory, pinned by hash.

One small trace replays under each registered scheduler, once without
faults and once under seeded ``mtbf`` node faults, plus one FIFO service
run fed by two tenants.  Each run is reduced to the ``trajectory_hash``
that ``perfbench/workloads.py`` defines (copied below, because tests do
not import the benchmark): a sha256 over every completed job's metrics,
the makespan and the event count.  A change to any scheduler's decision
rule, to the fault handlers or to the service's admission path changes
a hash here.

If a change *intentionally* alters trajectories, regenerate the fixture
and call the change out in the PR:

    PYTHONPATH=src python -m tests.test_trajectory_hashes --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.experiments.backends import simulate_trace
from repro.experiments.registry import available_schedulers, create_scheduler
from repro.faults.config import FaultConfig
from repro.service.engine import SchedulerService
from repro.service.load import generate_submissions
from repro.service.schemas import ServiceConfig, TenantQuota
from repro.sim.simulator import SimulationConfig
from repro.workload.arrivals import ArrivalConfig
from repro.workload.trace import TraceConfig, TraceGenerator

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "trajectory_hashes.json"

NUM_GPUS = 16
NUM_JOBS = 8
SEED = 2021
#: Two 8-GPU shards.
OPTIONS = {"ONES-hier": {"partition_size": 8}}
FAULTS = {
    "none": None,
    "mtbf": FaultConfig(profile="mtbf", seed=3, mtbf_hours=0.5, repair_minutes=5.0),
}
SERVICE_ROW = "service/FIFO"


def trajectory_hash(result) -> str:
    """sha256 over the per-job completion metrics, the makespan and the event count."""
    digest = hashlib.sha256()
    for job_id in sorted(result.completed):
        metrics = result.completed[job_id]
        row = ",".join(f"{key}={metrics[key]!r}" for key in sorted(metrics))
        digest.update(f"{job_id}:{row};".encode())
    digest.update(f"makespan={result.makespan!r};events={result.events_processed}".encode())
    return digest.hexdigest()


def _trace():
    config = TraceConfig(num_jobs=NUM_JOBS, arrival_rate=1.0 / 30.0)
    return TraceGenerator(config, seed=SEED).generate()


def simulator_row(scheduler: str, faults: str) -> str:
    result = simulate_trace(
        create_scheduler(scheduler, SEED, **OPTIONS.get(scheduler, {})),
        _trace(),
        NUM_GPUS,
        SimulationConfig(faults=FAULTS[faults]),
    )
    return trajectory_hash(result)


def service_row() -> str:
    """A FIFO service for a Poisson and a quota-bound bursty tenant."""
    service = SchedulerService(
        ServiceConfig(
            num_gpus=NUM_GPUS,
            scheduler="FIFO",
            seed=SEED,
            mode="virtual",
            tenants=(TenantQuota(tenant="steady"), TenantQuota(tenant="bursty", max_active=3)),
        )
    )
    submissions = generate_submissions(
        ["steady"], 10, arrivals=ArrivalConfig(rate=1.0 / 60.0, seed=SEED)
    ) + generate_submissions(
        ["bursty"], 10, arrivals=ArrivalConfig(profile="bursty", rate=1.0 / 150.0, seed=SEED)
    )
    submissions.sort(key=lambda s: (s.arrival_time, s.tenant, s.name))
    for submission in submissions:
        service.advance_to(submission.arrival_time)
        service.submit(submission)
    return trajectory_hash(service.drain())


def rows() -> dict:
    table = {
        f"{scheduler}/{faults}": simulator_row(scheduler, faults)
        for scheduler in available_schedulers()
        for faults in FAULTS
    }
    table[SERVICE_ROW] = service_row()
    return table


@pytest.fixture(scope="module")
def golden() -> dict:
    if not FIXTURE.exists():  # pragma: no cover - only before first regen
        pytest.fail(
            "trajectory fixture missing; generate it with "
            "`PYTHONPATH=src python -m tests.test_trajectory_hashes --regen`"
        )
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scheduler(golden):
    expected = {f"{s}/{f}" for s in available_schedulers() for f in FAULTS} | {SERVICE_ROW}
    assert set(golden) == expected


@pytest.mark.parametrize("faults", list(FAULTS))
@pytest.mark.parametrize("scheduler", available_schedulers())
def test_simulator_trajectory(golden, scheduler, faults):
    assert simulator_row(scheduler, faults) == golden[f"{scheduler}/{faults}"], (
        f"{scheduler} changed its trajectory ({faults} faults); if intentional, "
        "regenerate with `PYTHONPATH=src python -m tests.test_trajectory_hashes --regen`"
    )


def test_service_trajectory(golden):
    assert service_row() == golden[SERVICE_ROW]


def main(argv):  # pragma: no cover - manual regeneration entry point
    if "--regen" not in argv:
        print(__doc__)
        return 1
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(rows(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))

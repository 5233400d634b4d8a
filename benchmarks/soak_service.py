"""Soak check: a scheduler service's per-event cost must not grow with history.

Drives :class:`~repro.service.engine.SchedulerService` (FIFO, 64 GPUs,
virtual mode) through 10,000 submissions from two tenants made by
:func:`repro.service.load.generate_submissions`: ``steady`` (Poisson,
one job per 60 s) and ``bursty`` (bursty profile, quiet rate one job per
150 s, at most 12 active jobs).  Like the ``service-fifo-64`` workload of
``perfbench/``, the client calls ``advance_to(arrival)`` before each
``submit()``.

For every tenth of the submissions it prints the time spent per kernel
event and the process's peak RSS so far.  Times are in reference µs, as
in ``perfbench/``: wall time multiplied by the speed its ``SpeedProbe``
measured over the same tenth, because on a shared machine the same code
runs up to twice as slow for seconds at a time, in CPU time as much as
in wall time.  It exits 1 when the median µs per event of the last
three tenths exceeds 1.25x the median of the first three: per-event work
must depend on the jobs still active, not on how many were ever
submitted.  RSS is printed, not gated, and nothing is written to disk.

Run from the repository root::

    python benchmarks/soak_service.py
"""

from __future__ import annotations

import resource
import statistics
import sys
from pathlib import Path

# perfbench/rep.py also puts src/ on the path and pins the BLAS threads.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from rep import SpeedProbe  # noqa: E402

from repro.service.engine import SchedulerService
from repro.service.load import generate_submissions
from repro.service.schemas import ServiceConfig, TenantQuota
from repro.workload.arrivals import ArrivalConfig

SEED = 1
SUBMISSIONS_PER_TENANT = 5_000
#: (tenant, arrival profile, rate in jobs per second)
TENANTS = (
    ("steady", "poisson", 1.0 / 60.0),
    ("bursty", "bursty", 1.0 / 150.0),
)
BURSTY_MAX_ACTIVE = 12
DECILES = 10
#: Allowed growth of µs per event, last three tenths over the first three.
MAX_GROWTH = 1.25


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def build_load():
    submissions = []
    for tenant, profile, rate in TENANTS:
        arrivals = ArrivalConfig(profile=profile, rate=rate, seed=SEED)
        submissions += generate_submissions(
            [tenant], SUBMISSIONS_PER_TENANT, arrivals=arrivals
        )
    submissions.sort(key=lambda s: (s.arrival_time, s.tenant, s.name))
    return submissions


def build_service() -> SchedulerService:
    return SchedulerService(
        ServiceConfig(
            num_gpus=64,
            scheduler="FIFO",
            seed=SEED,
            mode="virtual",
            tenants=(
                TenantQuota(tenant="steady"),
                TenantQuota(tenant="bursty", max_active=BURSTY_MAX_ACTIVE),
            ),
        )
    )


def soak():
    """Drive the load; return one ``(submissions, events, µs/event, RSS MB)`` row per tenth."""
    submissions = build_load()
    service = build_service()
    kernel = service.sim.kernel
    bounds = [len(submissions) * (k + 1) // DECILES for k in range(DECILES)]
    rows = []
    start = 0
    for end in bounds:
        events_before = kernel.events_processed
        with SpeedProbe() as probe:
            begin = probe.clock()
            for submission in submissions[start:end]:
                service.advance_to(submission.arrival_time)
                service.submit(submission)
            elapsed = (probe.clock() - begin) * probe.speed()
        events = kernel.events_processed - events_before
        rows.append((end, events, elapsed / max(events, 1) * 1e6, peak_rss_mb()))
        start = end
    return rows, len(service.sim.jobs)


def main() -> int:
    rows, admitted = soak()
    print(f"{'submissions':>11} {'events':>8} {'us/event':>9} {'max RSS MB':>11}")
    for submitted, events, us_per_event, rss in rows:
        print(f"{submitted:>11} {events:>8} {us_per_event:>9.1f} {rss:>11.1f}")
    first = statistics.median(row[2] for row in rows[:3])
    last = statistics.median(row[2] for row in rows[-3:])
    growth = last / first
    print(
        f"{admitted} jobs admitted; median us/event: first three tenths {first:.1f}, "
        f"last three {last:.1f}, growth {growth:.2f}x (limit {MAX_GROWTH}x)"
    )
    if growth > MAX_GROWTH:
        print("FAIL: per-event cost grows with the number of jobs submitted")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""ONES event-loop, fault, scale and observability benchmarks.

Full simulations that bound what the scheduler costs end to end:

* the event loop at 16 and 64 GPUs, with the GPR refit share of each
  run,
* the fault subsystem's dormant overhead plus one chaotic MTBF run,
* hierarchical ONES (``ONES-hier``) at 256 GPUs (and 1024 under
  ``REPRO_BENCH_FULL_SCALE=1``),
* the trace recorder's dormant and recording overhead.

Results go to ``BENCH_scoring.json`` so the perf trajectory stays
machine-readable across changes; the ``TestScoringPerf`` gates assert
the floors.  The generation kernel's own speed is measured by the
repository benchmark (``perfbench/``: ``wall_s``,
``core.generation_ms``); its bit-identity with the scalar reference is
pinned by the tier-1 parity suites.  Run with ``PYTHONPATH=src python
-m benchmarks.bench_perf_scoring`` or through pytest.
"""

from __future__ import annotations

import os
from functools import lru_cache
from time import perf_counter
from typing import Dict

import numpy as np

from benchmarks._shared import SEED, write_perf_record, write_report

from repro.experiments.backends import simulate_trace
from repro.experiments.registry import create_scheduler
from repro.faults.config import FaultConfig
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator


#: Event-loop configurations: the 16-GPU smoke scale and the 64-GPU
#: cluster the acceptance numbers come from.
EVENT_LOOP_CONFIGS = ((16, 10), (64, 40))


def _trace(num_jobs: int, interval: float):
    """The seeded Table-2 trace every section replays."""
    config = TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / interval)
    return TraceGenerator(config, seed=SEED).generate()


def _bench_event_loop() -> Dict[str, Dict]:
    """Kernel + GPR wall-clock of full ONES simulations.

    Times the simulation engine end to end under the paper's predictor,
    which refits the GPR at every completion.  Profiling is on, so the
    GPR-refit share of every run is recorded.
    """
    records: Dict[str, Dict] = {}
    for num_gpus, num_jobs in EVENT_LOOP_CONFIGS:
        trace = _trace(num_jobs, 30.0)
        scheduler = create_scheduler("ONES", SEED)
        start = perf_counter()
        result = simulate_trace(
            scheduler, trace, num_gpus, SimulationConfig(collect_profile=True)
        )
        elapsed = perf_counter() - start
        refit = result.profile.get("gpr_refit_seconds", 0.0)
        records[f"{num_gpus}x{num_jobs}"] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            "seconds": round(elapsed, 3),
            "events": result.events_processed,
            "events_per_sec": round(result.events_processed / elapsed, 1),
            "gpr_refit_seconds": round(refit, 3),
            "gpr_refit_share": round(refit / elapsed, 3),
            "gpr_fits": scheduler.predictor.fit_count,
            "completed": len(result.completed),
            "average_jct": round(result.average_jct, 1),
        }
    return records


def _bench_faults() -> Dict:
    """Fault-subsystem cost: dormant-config overhead + one chaotic run.

    The zero-fault contract is that merely *shipping* the fault
    subsystem (handler registration, availability checks on the advance
    and allocation paths, the runtime's empty-state queries) costs the
    event loop nothing measurable.  ``disabled_overhead`` compares a run
    with no fault config against a run whose config is enabled but
    dormant (an MTBF so large no failure lands inside the horizon) —
    the two trajectories must be identical and the wall-clock within a
    few percent (gated <5% below).  A genuinely faulted run is recorded
    alongside for the perf trajectory of recovery itself.
    """
    num_gpus, num_jobs = 16, 10
    trace = _trace(num_jobs, 30.0)

    def timed_run(faults):
        scheduler = create_scheduler("ONES", SEED)
        start = perf_counter()
        result = simulate_trace(
            scheduler, trace, num_gpus, SimulationConfig(faults=faults)
        )
        return result, perf_counter() - start

    # Enabled but dormant: the first exponential failure draw lands ~1e6
    # hours out, far beyond the simulation horizon, so zero events fire.
    dormant = FaultConfig(profile="mtbf", seed=SEED, mtbf_hours=1e6)
    baseline_times, dormant_times = [], []
    baseline_result = dormant_result = None
    for _ in range(3):  # interleaved, best-of-3 per side (noise control)
        baseline_result, elapsed = timed_run(None)
        baseline_times.append(elapsed)
        dormant_result, elapsed = timed_run(dormant)
        dormant_times.append(elapsed)
    if baseline_result.completed != dormant_result.completed:
        raise AssertionError("a dormant fault config changed the trajectory")
    baseline_s, dormant_s = min(baseline_times), min(dormant_times)

    chaotic = FaultConfig(
        profile="mtbf", seed=SEED, mtbf_hours=0.5, repair_minutes=10
    )
    faulted_result, faulted_s = timed_run(chaotic)
    return {
        "num_gpus": num_gpus,
        "num_jobs": num_jobs,
        "baseline_seconds": round(baseline_s, 3),
        "dormant_seconds": round(dormant_s, 3),
        "disabled_overhead": round(dormant_s / baseline_s - 1.0, 4),
        "baseline_events_per_sec": round(
            baseline_result.events_processed / baseline_s, 1
        ),
        "faulted": {
            "seconds": round(faulted_s, 3),
            "events": faulted_result.events_processed,
            "completed": len(faulted_result.completed),
            "evictions": faulted_result.faults.get("evictions", 0.0),
            "restarts": faulted_result.faults.get("restarts", 0.0),
            "goodput": round(faulted_result.faults.get("goodput", 0.0), 3),
        },
    }


#: Hierarchical-scheduler scale tiers: ``(num_gpus, num_jobs,
#: partition_size, mean arrival interval)``.  The quick tier always runs
#: (it is the CI ``scale-smoke`` budget gate); the full tier is the
#: ISSUE acceptance scenario — 1024 GPUs / 1000 jobs, minutes not hours
#: — and only runs when ``REPRO_BENCH_FULL_SCALE`` is set, so its
#: numbers land in ``BENCH_scoring.json`` without taxing every CI run.
SCALE_TIERS = {
    "quick": (256, 120, 64, 10.0),
    "full": (1024, 1000, 64, 5.0),
}


def _bench_hierarchical_scale() -> Dict[str, Dict]:
    """Wall-clock of the partitioned scheduler at post-paper cluster sizes.

    Flat ONES is superlinear in cluster size (genome length = GPU count,
    population = cluster size), so these tiers run only the hierarchical
    configuration — the flat side of the story is covered at 64 GPUs by
    the ``event_loop`` section and pinned bit-identical to ``ONES-hier``
    with one cluster-wide partition by the differential parity suite.
    """
    tiers = ["quick"]
    if os.environ.get("REPRO_BENCH_FULL_SCALE"):
        tiers.append("full")
    records: Dict[str, Dict] = {}
    for tier in tiers:
        num_gpus, num_jobs, partition_size, interval = SCALE_TIERS[tier]
        trace = _trace(num_jobs, interval)
        scheduler = create_scheduler("ONES-hier", SEED, partition_size=partition_size)
        start = perf_counter()
        result = simulate_trace(scheduler, trace, num_gpus, SimulationConfig())
        elapsed = perf_counter() - start
        summary = scheduler.describe_state()
        records[tier] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            "partition_size": partition_size,
            "partitions": summary["partitions"],
            "seconds": round(elapsed, 1),
            "events": result.events_processed,
            "events_per_sec": round(result.events_processed / elapsed, 1),
            "completed": len(result.completed),
            "incomplete": len(result.incomplete),
            "wide_placements": summary.get("wide_placements", 0),
            "makespan": round(result.makespan, 1),
            "average_jct": round(result.average_jct, 1),
        }
    return records


def _bench_observability() -> Dict:
    """Trace-recorder cost at the 256x120 smoke tier: dormant + recording.

    The observability contract mirrors the fault subsystem's: merely
    *shipping* the tracer hooks (the ``active_tracer()`` global read +
    branch on every instrumentation site, the kernel's per-event
    ``enabled`` check) must cost the traced-off event loop nothing
    measurable.  ``disabled_overhead`` compares a run with no recorder
    installed against a run with a recorder installed but *disabled* —
    trajectories must be identical and the wall-clock within a few
    percent (gated <3% below).  One fully-traced run is recorded
    alongside so the cost of tracing-on (and the record volume it buys)
    stays in the perf trajectory.

    The horizon is capped at the first 600 virtual seconds of the tier's
    trace: a ~3 s measured run instead of ~12 s buys five interleaved
    rounds per side, and best-of-N over short interleaved runs is far
    more robust to background machine noise than best-of-3 over long
    ones — the dormant delta under test is a global read and a branch
    per instrumentation site, far below long-run noise amplitude.
    """
    from repro.obs.trace import TraceRecorder, install_tracer, uninstall_tracer

    num_gpus, num_jobs, partition_size, interval = SCALE_TIERS["quick"]
    trace = _trace(num_jobs, interval)
    sim_config = SimulationConfig(max_time=600.0)

    def timed_run():
        scheduler = create_scheduler("ONES-hier", SEED, partition_size=partition_size)
        start = perf_counter()
        result = simulate_trace(scheduler, trace, num_gpus, sim_config)
        return result, perf_counter() - start

    uninstall_tracer()
    timed_run()  # warm-up: throughput-table and numpy caches
    # Per-round pairwise ratios, then the median across rounds: pairing
    # adjacent-in-time runs cancels slow machine drift that poisons
    # min-of-N over independent series, and the median sheds the rounds
    # a background burst landed in.
    dormant_ratios, tracing_ratios = [], []
    baseline_times, dormant_times = [], []
    baseline_result = dormant_result = traced_result = None
    recorder = None
    for round_index in range(6):
        # Alternate which side runs first so within-round drift cannot
        # systematically favour either side.
        dormant_first = bool(round_index % 2)
        if dormant_first:
            install_tracer(TraceRecorder(enabled=False))
            dormant_result, dormant_elapsed = timed_run()
            uninstall_tracer()
            baseline_result, baseline_elapsed = timed_run()
        else:
            baseline_result, baseline_elapsed = timed_run()
            install_tracer(TraceRecorder(enabled=False))
            dormant_result, dormant_elapsed = timed_run()
            uninstall_tracer()
        baseline_times.append(baseline_elapsed)
        dormant_times.append(dormant_elapsed)
        recorder = install_tracer(TraceRecorder(capacity=1 << 20))
        traced_result, traced_elapsed = timed_run()
        uninstall_tracer()
        dormant_ratios.append(dormant_elapsed / baseline_elapsed)
        tracing_ratios.append(traced_elapsed / baseline_elapsed)
    if baseline_result.completed != dormant_result.completed:
        raise AssertionError("a dormant trace recorder changed the trajectory")
    if traced_result.completed != baseline_result.completed:
        raise AssertionError("an enabled trace recorder changed the trajectory")
    return {
        "num_gpus": num_gpus,
        "num_jobs": num_jobs,
        "baseline_seconds": round(min(baseline_times), 3),
        "dormant_seconds": round(min(dormant_times), 3),
        "disabled_overhead": round(float(np.median(dormant_ratios)) - 1.0, 4),
        "tracing_overhead": round(float(np.median(tracing_ratios)) - 1.0, 4),
        "trace_records": len(recorder),
        "trace_records_dropped": recorder.dropped,
    }


@lru_cache(maxsize=1)
def run() -> Dict:
    """Run every section and persist the BENCH_scoring.json record."""
    event_loop = _bench_event_loop()
    faults = _bench_faults()
    scale = _bench_hierarchical_scale()
    observability = _bench_observability()

    lines = ["Event loop: flat ONES, GPR refit at every completion", ""]
    lines.append(
        f"{'scale':<8} {'ev/s':>8} {'GPR fits':>9} {'refit share':>12} {'avg JCT':>9}"
    )
    for key, row in event_loop.items():
        lines.append(
            f"{key:<8} {row['events_per_sec']:>8,.0f} {row['gpr_fits']:>9} "
            f"{row['gpr_refit_share']:>11.0%} {row['average_jct']:>9,.1f}"
        )
    lines += [
        "",
        f"Fault subsystem ({faults['num_gpus']} GPUs, {faults['num_jobs']} jobs): "
        f"disabled-injection overhead {100 * faults['disabled_overhead']:+.1f}% "
        f"({faults['baseline_seconds']}s -> {faults['dormant_seconds']}s, "
        f"identical trajectories); chaotic MTBF run: "
        f"{faults['faulted']['evictions']:.0f} evictions, "
        f"goodput {faults['faulted']['goodput']:.0%} "
        f"in {faults['faulted']['seconds']}s",
    ]
    lines += ["", "Hierarchical partitioned ONES at scale (ONES-hier)", ""]
    lines.append(
        f"{'tier':<8} {'GPUs':>5} {'jobs':>5} {'parts':>6} "
        f"{'seconds':>8} {'ev/s':>8} {'wide':>5} {'avg JCT':>9}"
    )
    for tier, row in scale.items():
        lines.append(
            f"{tier:<8} {row['num_gpus']:>5} {row['num_jobs']:>5} "
            f"{row['partitions']:>6} {row['seconds']:>8,.1f} "
            f"{row['events_per_sec']:>8,.1f} {row['wide_placements']:>5} "
            f"{row['average_jct']:>9,.1f}"
        )
    if "full" not in scale:
        lines.append(
            "(full 1024-GPU / 1000-job tier skipped; set "
            "REPRO_BENCH_FULL_SCALE=1 to run it)"
        )
    lines += [
        "",
        f"Trace recorder ({observability['num_gpus']} GPUs, "
        f"{observability['num_jobs']} jobs, ONES-hier): "
        f"dormant overhead {100 * observability['disabled_overhead']:+.1f}% "
        f"({observability['baseline_seconds']}s -> "
        f"{observability['dormant_seconds']}s, identical trajectories); "
        f"tracing on: {observability['trace_records']:,} records "
        f"at {100 * observability['tracing_overhead']:+.1f}%",
    ]
    write_report("perf_scoring", "\n".join(lines))
    record = {
        "event_loop": event_loop,
        "faults": faults,
        "scale": scale,
        "observability": observability,
    }
    write_perf_record("scoring", record)
    return record


class TestScoringPerf:
    def test_hierarchical_scale_budget(self):
        row = run()["scale"]["quick"]
        # The scale-smoke gate: a 256-GPU / 120-job partitioned trace
        # must finish the whole trace inside a generous wall-clock
        # budget (observed ~14 s locally; the bound absorbs CI-runner
        # noise while still catching superlinear regressions).
        assert row["incomplete"] == 0
        assert row["completed"] == row["num_jobs"]
        assert row["partitions"] == 4
        assert row["seconds"] < 180.0

    def test_observability_dormant_overhead(self):
        row = run()["observability"]
        # PR 10 acceptance: shipping the trace-recorder hooks costs the
        # tracing-off event loop <3% at the 256x120 smoke tier (the
        # dormant run has a recorder installed but disabled, so every
        # instrumentation site takes its guard branch; trajectory
        # identity — tracing on AND off — is asserted inside the bench).
        assert row["disabled_overhead"] < 0.03
        # The traced run actually recorded the simulation.
        assert row["trace_records"] > 0
        assert row["trace_records_dropped"] == 0

    def test_fault_subsystem_disabled_overhead(self):
        row = run()["faults"]
        # PR 5 acceptance: shipping the fault subsystem costs the
        # zero-fault event loop <5% (the dormant-config run performs the
        # same work as the no-config run plus the subsystem's empty-state
        # checks; trajectory identity is asserted inside the bench).
        assert row["disabled_overhead"] < 0.05
        # The chaotic run actually exercises recovery and still finishes.
        assert row["faulted"]["completed"] == row["num_jobs"]
        assert row["faulted"]["evictions"] >= 1
        assert 0.0 < row["faulted"]["goodput"] <= 1.0


if __name__ == "__main__":
    import json

    print(json.dumps(run(), indent=2))

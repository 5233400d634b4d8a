"""Scalar vs batched engines on the two ONES hot paths: scoring + operators.

The SRUF objective (Eq. 8) is evaluated for every candidate of the
population at every simulator event, and the evolution *operators*
(refresh, crossover repair, mutation refill, reorder, selection) run a
whole generation around it — together they bound how large a population
(and how busy a cluster) the scheduler can afford.  This bench drives
identical workloads through

* the scalar reference paths (one Python loop per candidate, one
  throughput lookup per (job, candidate) pair, one Schedule per
  intermediate), and
* the batched engines (one ``bincount`` + one ``ThroughputTable``
  gather for scoring; array ops over the stacked ``(K, num_gpus)``
  genome matrix for the generation loop),

at every benchmark scale, plus one small end-to-end ONES simulation per
engine, and writes the ops/sec of all paths to ``BENCH_scoring.json``
so the perf trajectory is machine-readable across PRs.  Both engines
are bit-identical (asserted here and in the parity suites), so every
speedup is free.  Run with ``PYTHONPATH=src python -m
benchmarks.bench_perf_scoring`` or through pytest.
"""

from __future__ import annotations

import os
from dataclasses import replace
from functools import lru_cache
from time import perf_counter
from typing import Dict

import numpy as np

from benchmarks._shared import SCALES, SEED, write_perf_record, write_report

from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.core.operators import reorder
from repro.core.schedule import IDLE, Schedule, stack_genomes
from repro.core.scoring import score_candidates, score_population
from repro.experiments.backends import simulate_trace
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import create_scheduler
from repro.experiments.runner import generate_trace, run_single
from repro.faults.config import FaultConfig
from repro.jobs.throughput import ThroughputModel, ThroughputTable
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig

from tests._core_helpers import make_context, make_jobs

#: Fraction of GPUs knocked idle per candidate so the workload includes
#: idle genes (the engine must handle them, and real populations do).
IDLE_FRACTION = 0.1


def _scoring_workload(num_gpus: int, num_jobs: int, seed: int):
    """A busy cluster snapshot plus a population of K = num_gpus candidates."""
    jobs = make_jobs(num_jobs)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(1500 * (i + 1), 10.0)
    topology = make_longhorn_cluster(num_gpus)
    model = ThroughputModel(topology)
    limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    rng = np.random.default_rng(seed)
    candidates = []
    for _ in range(num_gpus):  # the paper's K = cluster size
        genome = rng.integers(0, num_jobs, size=num_gpus).astype(np.int64)
        genome[rng.random(num_gpus) < IDLE_FRACTION] = IDLE
        candidates.append(reorder(Schedule(roster=roster, genome=genome)))
    table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)
    progress = {
        job_id: float(rho)
        for job_id, rho in zip(roster, rng.uniform(0.05, 0.95, size=len(roster)))
    }
    return jobs, candidates, table, progress


def _candidates_per_sec(fn, num_candidates: int, min_time: float = 0.2) -> float:
    """Candidates scored per second (repeat until ``min_time`` elapsed)."""
    fn()  # warm-up: fills the throughput table / caches
    reps = 0
    start = perf_counter()
    elapsed = 0.0
    while elapsed < min_time:
        fn()
        reps += 1
        elapsed = perf_counter() - start
    return reps * num_candidates / elapsed


def _evolution_workload(num_gpus: int, num_jobs: int, seed: int):
    """A busy snapshot plus a factory for identically-seeded contexts."""
    jobs = make_jobs(num_jobs)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(1500 * (i + 1), 10.0)
    model = ThroughputModel(make_longhorn_cluster(num_gpus))
    limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    base = make_context(jobs, num_gpus=num_gpus, limits=limits, seed=seed)
    table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)

    def fresh_ctx(rng_seed: int):
        return replace(
            base,
            throughput_fn=None,
            throughput_table=table,
            rng=np.random.default_rng(rng_seed),
        )

    return fresh_ctx


def _generations_per_sec(search, ctx, min_time: float = 0.4) -> float:
    """Full evolution generations per second (steady-state stepping)."""
    search.step(ctx)  # initialise the population / warm the table
    reps = 0
    start = perf_counter()
    elapsed = 0.0
    while elapsed < min_time:
        search.step(ctx)
        reps += 1
        elapsed = perf_counter() - start
    return reps / elapsed


def _bench_operator_loop(num_gpus: int, num_jobs: int) -> Dict:
    """Scalar vs batched generation loop at one scale (K = paper size)."""
    fresh_ctx = _evolution_workload(num_gpus, num_jobs, SEED)

    def search(batched: bool) -> EvolutionarySearch:
        return EvolutionarySearch(
            EvolutionConfig(batched_operators=batched), seed=SEED
        )

    # Parity guard: identical seeds must yield identical trajectories.
    scalar_probe, batched_probe = search(False), search(True)
    ctx_a, ctx_b = fresh_ctx(SEED + 1), fresh_ctx(SEED + 1)
    for _ in range(2):
        best_a, score_a = scalar_probe.step(ctx_a)
        best_b, score_b = batched_probe.step(ctx_b)
        if score_a != score_b or not np.array_equal(best_a.genome, best_b.genome):
            raise AssertionError("scalar and batched generations disagree")
    if not np.array_equal(
        stack_genomes(scalar_probe.population.members),
        stack_genomes(batched_probe.population.members),
    ):
        raise AssertionError("scalar and batched populations disagree")

    scalar_ops = _generations_per_sec(search(False), fresh_ctx(SEED + 2))
    batched_ops = _generations_per_sec(search(True), fresh_ctx(SEED + 2))
    population = EvolutionConfig().resolved_population_size(num_gpus)
    return {
        "num_gpus": num_gpus,
        "num_jobs": num_jobs,
        "population": population,
        "scalar_generations_per_sec": round(scalar_ops, 2),
        "batched_generations_per_sec": round(batched_ops, 2),
        "speedup": round(batched_ops / scalar_ops, 2),
    }


#: Full-simulation configurations timed per engine: a small smoke scale
#: and the 64-GPU cluster the ROADMAP end-to-end numbers come from.
END_TO_END_CONFIGS = ((16, 10), (64, 40))


def _bench_end_to_end() -> Dict[str, Dict]:
    """Full ONES simulations per engine (trajectories must be identical)."""
    records: Dict[str, Dict] = {}
    for num_gpus, num_jobs in END_TO_END_CONFIGS:
        config = ExperimentConfig(
            num_gpus=num_gpus,
            trace=TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0),
            seed=SEED,
        )
        trace = generate_trace(config)
        timings: Dict[str, float] = {}
        results = {}
        for label, batched in (("scalar", False), ("batched", True)):
            scheduler = ONESScheduler(
                ONESConfig(evolution=EvolutionConfig(batched_operators=batched)),
                seed=SEED,
            )
            start = perf_counter()
            results[label] = run_single(scheduler, trace, config)
            timings[label] = perf_counter() - start
        if results["scalar"].completed != results["batched"].completed:
            raise AssertionError("end-to-end trajectories diverged between engines")
        records[f"{num_gpus}x{num_jobs}"] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            "scalar_seconds": round(timings["scalar"], 3),
            "batched_seconds": round(timings["batched"], 3),
            "speedup": round(timings["scalar"] / timings["batched"], 2),
        }
    return records


#: Event-loop configurations: the 16-GPU smoke scale and the 64-GPU
#: cluster the acceptance numbers come from.
EVENT_LOOP_CONFIGS = ((16, 10), (64, 40))


def _bench_event_loop() -> Dict[str, Dict]:
    """Kernel + GPR-policy wall-clock of full ONES simulations.

    Times the simulation engine end to end under the two predictor
    policies: ``default`` is the paper-faithful full-refit-per-completion
    path (trajectory-pinned to the PR 3 baseline by the golden-trace and
    differential parity suites — only faster), ``incremental_gpr`` is the
    rank-1-update policy (``refit_policy="incremental"``), which trades
    bounded predictor staleness for long-trace throughput.  Profiling is
    on, so the GPR-refit share of every run is recorded.
    """
    records: Dict[str, Dict] = {}
    for num_gpus, num_jobs in EVENT_LOOP_CONFIGS:
        config = ExperimentConfig(
            num_gpus=num_gpus,
            trace=TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0),
            seed=SEED,
        )
        trace = generate_trace(config)
        row: Dict[str, Dict] = {}
        for label, options in (
            ("default", {}),
            ("incremental_gpr", {"refit_policy": "incremental"}),
        ):
            scheduler = create_scheduler("ONES", SEED, **options)
            start = perf_counter()
            result = simulate_trace(
                scheduler, trace, num_gpus, SimulationConfig(collect_profile=True)
            )
            elapsed = perf_counter() - start
            # Total GPR cost = full refits + rank-1 appends, so the share
            # is honest for the incremental policy too.
            refit = result.profile.get("gpr_refit_seconds", 0.0) + result.profile.get(
                "gpr_partial_fit_seconds", 0.0
            )
            row[label] = {
                "seconds": round(elapsed, 3),
                "events": result.events_processed,
                "events_per_sec": round(result.events_processed / elapsed, 1),
                "gpr_refit_seconds": round(refit, 3),
                "gpr_refit_share": round(refit / elapsed, 3),
                "gpr_full_fits": scheduler.predictor.fit_count,
                "gpr_partial_fits": scheduler.predictor.partial_fit_count,
                "completed": len(result.completed),
                "average_jct": round(result.average_jct, 1),
            }
        records[f"{num_gpus}x{num_jobs}"] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            **row,
            "speedup": round(row["default"]["seconds"] / row["incremental_gpr"]["seconds"], 2),
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
    config = ExperimentConfig(
        num_gpus=num_gpus,
        trace=TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0),
        seed=SEED,
    )
    trace = generate_trace(config)

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


#: Incremental-scoring tiers: ``(num_gpus, num_jobs)`` for the
#: delta-scoring generation kernel.  The paper scale and the CI quick
#: tier always run; the 1024-GPU / 1000-job acceptance tier only under
#: ``REPRO_BENCH_FULL_SCALE=1`` (one baseline generation alone takes
#: seconds there).
INCREMENTAL_TIERS = {
    "64x40": (64, 40),
    "256x120": (256, 120),
    "1024x1000": (1024, 1000),
}


def _bench_incremental_scoring() -> Dict[str, Dict]:
    """Generation throughput with the decomposition cache on vs off.

    Both sides run the batched engine (the PR 3 baseline); the only
    difference is ``EvolutionConfig.incremental_scoring`` — the
    per-candidate :class:`~repro.core.scoring_incremental.ScoreDecomposition`
    maintained through the operators instead of re-derived per
    generation.  A parity probe pins the two trajectories bit-identical
    before timing, so the speedup is free.
    """
    tiers = ["64x40", "256x120"]
    if os.environ.get("REPRO_BENCH_FULL_SCALE"):
        tiers.append("1024x1000")
    records: Dict[str, Dict] = {}
    for tier in tiers:
        num_gpus, num_jobs = INCREMENTAL_TIERS[tier]
        fresh_ctx = _evolution_workload(num_gpus, num_jobs, SEED)

        def search(incremental: bool) -> EvolutionarySearch:
            return EvolutionarySearch(
                EvolutionConfig(
                    batched_operators=True, incremental_scoring=incremental
                ),
                seed=SEED,
            )

        # Parity guard: identical seeds must yield identical trajectories.
        probe_off, probe_on = search(False), search(True)
        ctx_a, ctx_b = fresh_ctx(SEED + 1), fresh_ctx(SEED + 1)
        for _ in range(2):
            best_a, score_a = probe_off.step(ctx_a)
            best_b, score_b = probe_on.step(ctx_b)
            if score_a != score_b or not np.array_equal(
                best_a.genome, best_b.genome
            ):
                raise AssertionError("incremental scoring diverged from baseline")
        if not np.array_equal(
            stack_genomes(probe_off.population.members),
            stack_genomes(probe_on.population.members),
        ):
            raise AssertionError("incremental scoring diverged from baseline")

        baseline_ops = _generations_per_sec(search(False), fresh_ctx(SEED + 2))
        timed_on = search(True)
        incremental_ops = _generations_per_sec(timed_on, fresh_ctx(SEED + 2))
        if timed_on.scoring_engine.stats()["delta_generations"] == 0:
            raise AssertionError("timed run never hit the decomposition cache")
        population = EvolutionConfig().resolved_population_size(num_gpus)
        records[tier] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            "population": population,
            "baseline_generations_per_sec": round(baseline_ops, 2),
            "incremental_generations_per_sec": round(incremental_ops, 2),
            "baseline_ns_per_candidate": round(1e9 / (baseline_ops * population), 1),
            "incremental_ns_per_candidate": round(
                1e9 / (incremental_ops * population), 1
            ),
            "speedup": round(incremental_ops / baseline_ops, 2),
        }
    return records


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
    the ``end_to_end`` section and pinned bit-identical to ``ONES-hier``
    with ``partitions=1`` by the differential parity suite.
    """
    tiers = ["quick"]
    if os.environ.get("REPRO_BENCH_FULL_SCALE"):
        tiers.append("full")
    records: Dict[str, Dict] = {}
    for tier in tiers:
        num_gpus, num_jobs, partition_size, interval = SCALE_TIERS[tier]
        config = ExperimentConfig(
            num_gpus=num_gpus,
            trace=TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / interval),
            seed=SEED,
        )
        trace = generate_trace(config)
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
    config = ExperimentConfig(
        num_gpus=num_gpus,
        trace=TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / interval),
        seed=SEED,
    )
    trace = generate_trace(config)
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
    """Benchmark every scale and persist the BENCH_scoring.json record."""
    results: Dict[str, Dict] = {}
    for scale_name, params in SCALES.items():
        num_gpus = int(params["num_gpus"])
        num_jobs = int(params["num_jobs"])
        jobs, candidates, table, progress = _scoring_workload(
            num_gpus, num_jobs, SEED
        )
        scalar_fn = table.as_throughput_fn()

        build_start = perf_counter()
        scalar_scores = score_candidates(candidates, jobs, progress, scalar_fn)
        table_build_seconds = perf_counter() - build_start

        vector_scores = score_population(candidates, jobs, progress, table)
        if not np.array_equal(scalar_scores, vector_scores):
            raise AssertionError("scalar and vectorised scores disagree")

        scalar_ops = _candidates_per_sec(
            lambda: score_candidates(candidates, jobs, progress, scalar_fn),
            len(candidates),
        )
        vector_ops = _candidates_per_sec(
            lambda: score_population(candidates, jobs, progress, table),
            len(candidates),
        )
        results[scale_name] = {
            "num_gpus": num_gpus,
            "num_jobs": num_jobs,
            "population": len(candidates),
            "scalar_candidates_per_sec": round(scalar_ops, 1),
            "vectorized_candidates_per_sec": round(vector_ops, 1),
            "speedup": round(vector_ops / scalar_ops, 2),
            "table_entries": table.filled_entries,
            "table_capacity": table.capacity,
            "first_scoring_pass_seconds": round(table_build_seconds, 6),
        }

    evolution: Dict[str, Dict] = {}
    for scale_name, params in SCALES.items():
        evolution[scale_name] = _bench_operator_loop(
            int(params["num_gpus"]), int(params["num_jobs"])
        )
    end_to_end = _bench_end_to_end()
    event_loop = _bench_event_loop()
    faults = _bench_faults()
    incremental = _bench_incremental_scoring()
    scale = _bench_hierarchical_scale()
    observability = _bench_observability()

    lines = ["Population scoring: scalar reference vs vectorised engine", ""]
    lines.append(
        f"{'scale':<8} {'GPUs':>5} {'jobs':>5} {'K':>4} "
        f"{'scalar cand/s':>14} {'vector cand/s':>14} {'speedup':>8}"
    )
    for scale_name, row in results.items():
        lines.append(
            f"{scale_name:<8} {row['num_gpus']:>5} {row['num_jobs']:>5} "
            f"{row['population']:>4} {row['scalar_candidates_per_sec']:>14,.0f} "
            f"{row['vectorized_candidates_per_sec']:>14,.0f} "
            f"{row['speedup']:>7.1f}x"
        )
    lines += ["", "Evolution operator loop: scalar reference vs batched engine", ""]
    lines.append(
        f"{'scale':<8} {'GPUs':>5} {'jobs':>5} {'K':>4} "
        f"{'scalar gen/s':>13} {'batched gen/s':>14} {'speedup':>8}"
    )
    for scale_name, row in evolution.items():
        lines.append(
            f"{scale_name:<8} {row['num_gpus']:>5} {row['num_jobs']:>5} "
            f"{row['population']:>4} {row['scalar_generations_per_sec']:>13,.1f} "
            f"{row['batched_generations_per_sec']:>14,.1f} "
            f"{row['speedup']:>7.1f}x"
        )
    lines.append("")
    for row in end_to_end.values():
        lines.append(
            f"End-to-end ONES simulation ({row['num_gpus']} GPUs, "
            f"{row['num_jobs']} jobs): scalar {row['scalar_seconds']}s "
            f"vs batched {row['batched_seconds']}s "
            f"({row['speedup']}x, identical trajectories)"
        )
    lines += ["", "Event loop: default (paper-exact) vs incremental-GPR policy", ""]
    lines.append(
        f"{'scale':<8} {'default ev/s':>13} {'incr ev/s':>10} "
        f"{'refit share':>12} {'-> share':>9} {'speedup':>8}"
    )
    for key, row in event_loop.items():
        lines.append(
            f"{key:<8} {row['default']['events_per_sec']:>13,.0f} "
            f"{row['incremental_gpr']['events_per_sec']:>10,.0f} "
            f"{row['default']['gpr_refit_share']:>11.0%} "
            f"{row['incremental_gpr']['gpr_refit_share']:>8.0%} "
            f"{row['speedup']:>7.1f}x"
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
    lines += ["", "Incremental delta-scoring kernel vs per-generation rescoring", ""]
    lines.append(
        f"{'tier':<10} {'GPUs':>5} {'jobs':>5} {'K':>5} "
        f"{'base gen/s':>11} {'incr gen/s':>11} {'incr ns/cand':>13} {'speedup':>8}"
    )
    for tier, row in incremental.items():
        lines.append(
            f"{tier:<10} {row['num_gpus']:>5} {row['num_jobs']:>5} "
            f"{row['population']:>5} {row['baseline_generations_per_sec']:>11,.1f} "
            f"{row['incremental_generations_per_sec']:>11,.1f} "
            f"{row['incremental_ns_per_candidate']:>13,.0f} "
            f"{row['speedup']:>7.1f}x"
        )
    if "1024x1000" not in incremental:
        lines.append(
            "(full 1024-GPU / 1000-job tier skipped; set "
            "REPRO_BENCH_FULL_SCALE=1 to run it)"
        )
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
        "scales": results,
        "evolution": evolution,
        "end_to_end": end_to_end,
        "event_loop": event_loop,
        "faults": faults,
        "incremental_scoring": incremental,
        "scale": scale,
        "observability": observability,
    }
    write_perf_record("scoring", record)
    return record


class TestScoringPerf:
    def test_vectorized_scoring_speedup(self):
        results = run()["scales"]
        # The acceptance target: >= 10x on medium-scale population scoring.
        assert results["medium"]["speedup"] >= 10.0
        for row in results.values():
            assert row["table_entries"] <= row["table_capacity"]

    def test_batched_operator_loop_speedup(self):
        record = run()
        # PR 3 acceptance: >= 3x on the generation loop at the paper
        # scale (64 GPUs / 50 jobs / K = 64).
        assert record["evolution"]["paper"]["speedup"] >= 3.0
        # End-to-end at the 64-GPU scale must not regress (trajectory
        # identity is the hard guard, asserted inside the bench itself;
        # the wall-clock gate tolerates machine noise).
        assert record["end_to_end"]["64x40"]["speedup"] >= 0.8

    def test_event_loop_incremental_gpr_speedup(self):
        row = run()["event_loop"]["64x40"]
        # The GPR work the incremental policy saves at 64 GPUs / 40 jobs:
        # its GPR seconds (full refits + rank-1 appends) stay under a
        # quarter of the paper-exact policy's.  Seven fresh unpinned
        # runs on a 2-vCPU x86_64 VM read 0.105-0.148.
        assert (
            row["incremental_gpr"]["gpr_refit_seconds"]
            <= 0.25 * row["default"]["gpr_refit_seconds"]
        )
        # End to end the policy must still win.  The Cholesky-native
        # evidence kernel made the paper-exact side ~3.5x faster, so
        # this ratio shrank by design; the floor is 0.83x the median of
        # those seven runs (1.58, range 1.42-1.87).
        assert row["speedup"] >= 1.3
        # The GPR-refit share must drop measurably.
        assert (
            row["incremental_gpr"]["gpr_refit_share"]
            < 0.5 * row["default"]["gpr_refit_share"]
        )
        # Both runs finish the whole trace.
        assert row["default"]["completed"] == row["num_jobs"]
        assert row["incremental_gpr"]["completed"] == row["num_jobs"]

    def test_incremental_scoring_speedup(self):
        rows = run()["incremental_scoring"]
        # PR 9 acceptance: the delta-scoring kernel at the CI quick tier
        # (256 GPUs / 120 jobs / K = 256) is >= 2x generations/s over
        # full per-generation rescoring, bit-identical (parity asserted
        # inside the bench itself).
        assert rows["256x120"]["speedup"] >= 2.0
        # At the paper scale it must at least not regress.
        assert rows["64x40"]["speedup"] >= 0.9

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

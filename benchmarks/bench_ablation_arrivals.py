"""Extension — sensitivity of the ONES advantage to the arrival pattern.

The paper evaluates a single Poisson-like trace; production traces show
diurnal and bursty arrivals.  This benchmark re-runs ONES vs Tiresias
under three arrival processes (same workload mix, same total jobs) and
checks that ONES's advantage is not an artefact of smooth arrivals.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.baselines.tiresias import TiresiasScheduler
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.jobs.job import JobSpec
from repro.workload.arrivals import BurstyArrivals, DiurnalArrivals, PoissonArrivals
from repro.workload.trace import TraceConfig, TraceGenerator

from benchmarks._shared import SEED, write_report

NUM_GPUS = 16
NUM_JOBS = 14
TRACE_SEED = SEED + 5
PROCESSES = {
    "poisson": PoissonArrivals(rate=1.0 / 20.0),
    "diurnal": DiurnalArrivals(base_rate=1.0 / 20.0, amplitude=0.8, period=1200.0),
    "bursty": BurstyArrivals(
        quiet_rate=1.0 / 60.0, burst_rate=1.0 / 6.0,
        mean_quiet_duration=300.0, mean_burst_duration=90.0,
    ),
}


def _retime(trace, times):
    """Replace a trace's arrival times with the given timestamps."""
    retimed = []
    for spec, t in zip(sorted(trace, key=lambda s: s.arrival_time), np.sort(times)):
        retimed.append(
            JobSpec(
                job_id=spec.job_id,
                task=spec.task,
                model=spec.model,
                dataset=spec.dataset,
                dataset_size=spec.dataset_size,
                num_classes=spec.num_classes,
                convergence=spec.convergence,
                base_batch=spec.base_batch,
                base_lr=spec.base_lr,
                requested_gpus=spec.requested_gpus,
                arrival_time=float(t),
                convergence_patience=spec.convergence_patience,
            )
        )
    return retimed


def _run_all():
    trace_config = TraceConfig(num_jobs=NUM_JOBS, arrival_rate=1.0 / 20.0)
    base_trace = TraceGenerator(trace_config, seed=TRACE_SEED).generate()
    outcomes = {}
    for label, process in PROCESSES.items():
        times = process.generate(NUM_JOBS, rng=TRACE_SEED)
        trace = _retime(base_trace, times)
        ones = simulate_trace(
            ONESScheduler(ONESConfig(evolution=EvolutionConfig(population_size=12)), seed=SEED),
            trace,
            NUM_GPUS,
        )
        tiresias = simulate_trace(TiresiasScheduler(), trace, NUM_GPUS)
        outcomes[label] = (ones, tiresias)
    return outcomes


def test_ablation_arrival_patterns(benchmark):
    outcomes = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rows = []
    for label, (ones, tiresias) in outcomes.items():
        rows.append(
            {
                "arrival pattern": label,
                "ONES JCT (s)": round(ones.average_jct, 1),
                "Tiresias JCT (s)": round(tiresias.average_jct, 1),
                "ONES improvement": f"{100 * (1 - ones.average_jct / tiresias.average_jct):.1f}%",
            }
        )
    write_report(
        "ablation_arrivals",
        "Extension: ONES vs Tiresias under different arrival processes\n" + format_table(rows),
    )
    for label, (ones, tiresias) in outcomes.items():
        assert not ones.incomplete and not tiresias.incomplete, label
        # ONES stays ahead (or at worst within 5%) under every pattern.
        assert ones.average_jct <= tiresias.average_jct * 1.05, label

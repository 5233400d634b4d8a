"""Ablation — the scale-down (convoy-effect) policy σ.

§3.3.2 suggests σ = λ (the job arrival rate).  Taken literally that
collapses every job's batch limit; the reproduction damps σ by a
configurable factor (see DESIGN.md).  This benchmark sweeps the damping
factor to show its effect on JCT and on how large batches are allowed to
grow.
"""

from repro.analysis.reporting import format_table
from repro.core.batch_limit import BatchLimitConfig
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.workload.trace import TraceConfig, TraceGenerator

from benchmarks._shared import SEED, write_report

DAMPING_VALUES = (1.0, 10.0, 100.0)
NUM_GPUS = 16
TRACE = TraceConfig(num_jobs=14, arrival_rate=1.0 / 15.0)


def _run_all():
    trace = TraceGenerator(TRACE, seed=SEED + 2).generate()
    outcomes = {}
    for damping in DAMPING_VALUES:
        scheduler = ONESScheduler(
            ONESConfig(
                evolution=EvolutionConfig(population_size=12),
                batch_limits=BatchLimitConfig(sigma_damping=damping),
            ),
            seed=SEED,
        )
        result = simulate_trace(scheduler, trace, NUM_GPUS)
        max_batches = [
            max((b for _, b in job.batch_history), default=0)
            for job in result.jobs.values()
        ]
        outcomes[damping] = (result, max(max_batches))
    return outcomes


def test_ablation_scaledown_sigma(benchmark):
    outcomes = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rows = [
        {
            "sigma damping": damping,
            "avg JCT (s)": round(result.average_jct, 1),
            "avg queue (s)": round(result.average_queuing_time, 1),
            "largest batch reached": largest,
        }
        for damping, (result, largest) in outcomes.items()
    ]
    write_report(
        "ablation_scaledown",
        "Ablation: convoy-effect scale-down aggressiveness (sigma = lambda / damping)\n"
        + format_table(rows),
    )
    for damping, (result, largest) in outcomes.items():
        assert not result.incomplete
    # A weaker penalty (larger damping) lets batches grow at least as large.
    assert outcomes[100.0][1] >= outcomes[1.0][1]

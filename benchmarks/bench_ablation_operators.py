"""Ablation — how much does the evolutionary search contribute?

DESIGN.md calls out the evolutionary search (vs a greedy/degenerate
search) as the central design choice.  This benchmark runs ONES with:

* the full search (population, crossover, mutation, reorder),
* a degenerate population of size 1 (hill climbing),
* crossover and mutation disabled (refresh + reorder only),

on the same trace and compares average JCT.
"""

from repro.analysis.reporting import format_table
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.workload.trace import TraceConfig, TraceGenerator

from benchmarks._shared import SEED, write_report

VARIANTS = {
    "full evolutionary search": EvolutionConfig(population_size=16),
    "population of 1 (hill climbing)": EvolutionConfig(population_size=1),
    "no crossover / no mutation": EvolutionConfig(
        population_size=16, enable_crossover=False, enable_mutation=False
    ),
}


NUM_GPUS = 16
TRACE = TraceConfig(num_jobs=16, arrival_rate=1.0 / 20.0)


def _run_all():
    trace = TraceGenerator(TRACE, seed=SEED).generate()
    outcomes = {}
    for label, evolution in VARIANTS.items():
        scheduler = ONESScheduler(ONESConfig(evolution=evolution), seed=SEED)
        outcomes[label] = simulate_trace(scheduler, trace, NUM_GPUS)
    return outcomes


def test_ablation_evolution_operators(benchmark):
    outcomes = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rows = [
        {
            "variant": label,
            "avg JCT (s)": round(result.average_jct, 1),
            "avg exec (s)": round(result.average_execution_time, 1),
            "avg queue (s)": round(result.average_queuing_time, 1),
            "reconfigs": result.num_reconfigurations,
        }
        for label, result in outcomes.items()
    ]
    write_report(
        "ablation_operators",
        "Ablation: contribution of the evolutionary search components\n" + format_table(rows),
    )
    full = outcomes["full evolutionary search"]
    for label, result in outcomes.items():
        assert not result.incomplete, label
    # The full search should never be meaningfully worse than the ablated
    # variants (ties are acceptable on a small trace).
    for label, result in outcomes.items():
        assert full.average_jct <= result.average_jct * 1.10, label

"""Extension — ONES against additional reference schedulers.

Beyond the paper's three baselines, the repository ships FIFO, an oracle
SRTF and a Gandiva-style time-slicing scheduler (related-work §5).  This
benchmark places ONES in that wider field on a moderate trace.
"""

from repro.analysis.metrics import mean_metric
from repro.analysis.reporting import format_table
from repro.baselines.fifo import FIFOScheduler
from repro.baselines.gandiva import GandivaScheduler
from repro.baselines.srtf import SRTFScheduler
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.workload.trace import TraceConfig, TraceGenerator

from benchmarks._shared import SEED, write_report

NUM_GPUS = 16
RUN_SEED = SEED + 4


def _comparison():
    trace = TraceGenerator(
        TraceConfig(num_jobs=16, arrival_rate=1.0 / 20.0), seed=RUN_SEED
    ).generate()
    schedulers = {
        "ONES": ONESScheduler(
            ONESConfig(evolution=EvolutionConfig(population_size=12)), seed=RUN_SEED
        ),
        "Gandiva": GandivaScheduler(),
        "FIFO": FIFOScheduler(),
        "SRTF-oracle": SRTFScheduler(),
    }
    return {
        name: simulate_trace(scheduler, trace, NUM_GPUS)
        for name, scheduler in schedulers.items()
    }


def test_extra_baselines(benchmark):
    results = benchmark.pedantic(_comparison, rounds=1, iterations=1)
    rows = []
    for name, result in results.items():
        rows.append(
            {
                "scheduler": name,
                "avg JCT (s)": round(result.average_jct, 1),
                "avg exec (s)": round(result.average_execution_time, 1),
                "avg queue (s)": round(result.average_queuing_time, 1),
                "utilisation": round(result.gpu_utilization, 2),
            }
        )
    write_report(
        "extra_baselines",
        "Extension: ONES vs FIFO / SRTF-oracle / Gandiva time-slicing\n" + format_table(rows),
    )
    averages = {name: mean_metric(result, "jct") for name, result in results.items()}
    for name, result in results.items():
        assert not result.incomplete, name
    # ONES beats the fixed-configuration schedulers.
    assert averages["ONES"] < averages["FIFO"]
    assert averages["ONES"] < averages["Gandiva"]

"""Ablation — progress-predictor backend: Gaussian process vs Bayesian linear.

Footnote 1 of the paper describes a GPR predictor while Eq. 6 writes the
literal linear form ``β = max(Ax + b, 1)``.  Both are implemented; this
benchmark compares (a) their predictive error for epochs-remaining on
held-out jobs and (b) the end-to-end average JCT when plugged into ONES.
"""

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.prediction.history import examples_from_job
from repro.prediction.predictor import PredictorConfig, ProgressPredictor
from repro.workload.trace import TraceConfig, TraceGenerator

from benchmarks._shared import SEED, write_report


NUM_GPUS = 16
TRACE = TraceConfig(num_jobs=14, arrival_rate=1.0 / 20.0)


def _run_backend(backend: str):
    trace = TraceGenerator(TRACE, seed=SEED + 1).generate()
    scheduler = ONESScheduler(
        ONESConfig(
            evolution=EvolutionConfig(population_size=12),
            predictor=PredictorConfig(backend=backend),
        ),
        seed=SEED,
    )
    result = simulate_trace(scheduler, trace, NUM_GPUS)

    # Predictive accuracy: train on the first half of completed jobs,
    # evaluate epochs-remaining error on the second half.
    completed = [result.jobs[j] for j in sorted(result.completed)]
    split = len(completed) // 2
    predictor = ProgressPredictor(PredictorConfig(backend=backend), seed=SEED)
    for job in completed[:split]:
        predictor.observe_completion(job)
    errors = []
    for job in completed[split:]:
        for example in examples_from_job(job):
            x = np.asarray(example.features)
            mean, _ = predictor._model.predict_one(predictor._scaler.transform(x))
            errors.append(abs(max(mean, 0.0) - example.epochs_remaining))
    mae = float(np.mean(errors)) if errors else float("nan")
    return result, mae


def _run_all():
    return {backend: _run_backend(backend) for backend in ("gpr", "blr")}


def test_ablation_predictor_backend(benchmark):
    outcomes = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    rows = []
    for backend, (result, mae) in outcomes.items():
        rows.append(
            {
                "backend": backend,
                "epochs-remaining MAE": round(mae, 2),
                "avg JCT (s)": round(result.average_jct, 1),
                "avg exec (s)": round(result.average_execution_time, 1),
            }
        )
    write_report(
        "ablation_predictor",
        "Ablation: GPR vs Bayesian-linear progress predictor\n" + format_table(rows),
    )
    for backend, (result, mae) in outcomes.items():
        assert not result.incomplete, backend
        assert np.isfinite(mae), backend
        # Both backends should predict within a usable error band
        # (epochs-remaining is a few tens at most on this trace).
        assert mae < 40.0, backend

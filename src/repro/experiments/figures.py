"""Generators for the analytic figures and tables of the paper's evaluation.

Each function returns plain data structures (dicts / numpy arrays) so
they can be consumed both by the benchmark harness (which prints them)
and by tests (which assert their *shape* — who wins, which curve is
monotone, where the crossover falls).

These are the *analytic* figures (throughput scaling, convergence,
overheads, and Fig. 6's predictor fitted on one small replay) that need
no comparison between schedulers.  The simulation-driven
figures (15, 17, 18 and Table 4) are produced by running an
:class:`~repro.experiments.spec.ExperimentSpec` grid through the
:class:`~repro.experiments.orchestrator.Runner` and aggregating the
resulting :class:`~repro.experiments.artifacts.SweepArtifact`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.baselines.base import SchedulerBase
from repro.cluster.topology import make_longhorn_cluster
from repro.core.ones_scheduler import ONESScheduler
from repro.experiments.backends import simulate_trace
from repro.jobs.convergence import ConvergenceProfile, LossCurveSimulator
from repro.jobs.model_zoo import get_model
from repro.jobs.throughput import ThroughputModel
from repro.prediction.predictor import PredictorConfig, ProgressPredictor
from repro.scaling.overhead import OverheadModel
from repro.sim.simulator import SimulationConfig
from repro.workload.tasks import build_workload_catalog, catalog_summary
from repro.workload.trace import TraceConfig, TraceGenerator


# --------------------------------------------------------------------------------------------------
# Fig. 2 — throughput scaling, elastic vs fixed batch size
# --------------------------------------------------------------------------------------------------


def figure2_throughput_scaling(
    worker_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    fixed_batch: int = 256,
    elastic_max_batch: int = 2048,
) -> Dict[str, np.ndarray]:
    """Throughput of ResNet50/CIFAR10 vs worker count, elastic vs fixed batch."""
    catalog = [t for t in build_workload_catalog() if t.dataset == "cifar10" and "resnet18" not in t.model_name]
    template = next(t for t in build_workload_catalog() if t.dataset == "cifar10" and t.model_name == "resnet18")
    # Use a ResNet-style CIFAR model (the paper trains ResNet50 on CIFAR10).
    resnet_cifar = get_model("resnet50").scaled(0.12, "@cifar10")
    topology = make_longhorn_cluster(8)
    model = ThroughputModel(topology)
    fixed = model.scaling_curve(resnet_cifar, worker_counts, global_batch=fixed_batch)
    # Elastic: the local batch stays at ``fixed_batch`` per worker until the
    # global batch hits ``elastic_max_batch``.
    elastic = []
    for count in worker_counts:
        global_batch = min(fixed_batch * count, elastic_max_batch)
        elastic.append(model.throughput_even(resnet_cifar, global_batch, list(range(count))))
    return {
        "workers": np.asarray(list(worker_counts), dtype=int),
        "fixed_batch": fixed,
        "elastic_batch": np.asarray(elastic, dtype=float),
    }


# --------------------------------------------------------------------------------------------------
# Fig. 3 — convergence vs number of GPUs at a fixed local batch size
# --------------------------------------------------------------------------------------------------


def figure3_convergence_vs_gpus(
    gpu_counts: Sequence[int] = (1, 2, 4, 8),
    local_batch: int = 256,
    epochs: int = 200,
) -> Dict[str, np.ndarray]:
    """Accuracy curves with a fixed local batch of 256 and 1/2/4/8 GPUs."""
    template = next(
        t for t in build_workload_catalog() if t.dataset == "cifar10" and t.model_name == "resnet18"
    )
    profile = template.convergence_profile()
    curves: Dict[str, np.ndarray] = {"epochs": np.arange(1, epochs + 1)}
    for count in gpu_counts:
        global_batch = local_batch * count
        curves[f"{count}_gpus"] = profile.accuracy_curve(
            epochs, global_batch, lr_scaled=False
        )
    return curves


# --------------------------------------------------------------------------------------------------
# Fig. 6 — online prediction with uncertainty
# --------------------------------------------------------------------------------------------------


def figure6_prediction_example(
    num_training_jobs: int = 12,
    seed: int = 11,
    backend: str = "gpr",
) -> Dict[str, np.ndarray]:
    """Train the progress predictor on a few completed jobs and predict a new one."""
    trace_config = TraceConfig(num_jobs=num_training_jobs, arrival_rate=1.0 / 15.0)
    trace = TraceGenerator(trace_config, seed=seed).generate()
    simulation = SimulationConfig(max_time=24 * 3600.0)
    result = simulate_trace(ONESScheduler(seed=seed), trace, 16, simulation)
    predictor = ProgressPredictor(PredictorConfig(backend=backend), seed=seed)
    completed = [job for job in result.jobs.values() if job.is_completed]
    if len(completed) < 2:
        raise RuntimeError("not enough completed jobs to fit the predictor")
    holdout = completed[-1]
    for job in completed[:-1]:
        predictor.observe_completion(job)
    curve = predictor.prediction_curve(holdout)
    observed = np.asarray(
        [r.samples_processed for r in holdout.epoch_records], dtype=float
    )
    total = holdout.samples_processed
    curve["observed_samples"] = observed
    curve["observed_progress"] = observed / max(total, 1.0)
    curve["holdout_job"] = np.asarray([len(holdout.epoch_records)], dtype=float)
    return curve


# --------------------------------------------------------------------------------------------------
# Fig. 13 / Fig. 14 — abrupt vs gradual batch-size scaling
# --------------------------------------------------------------------------------------------------


def _cifar_resnet_profile() -> ConvergenceProfile:
    template = next(
        t for t in build_workload_catalog() if t.dataset == "cifar10" and t.model_name == "resnet18"
    )
    return template.convergence_profile()


def figure13_abrupt_scaling(
    initial_batch: int = 256,
    scaled_batch: int = 4096,
    switch_epoch: int = 30,
    total_epochs: int = 70,
) -> Dict[str, np.ndarray]:
    """Loss curves with an abrupt batch jump at ``switch_epoch`` vs a fixed batch."""
    profile = _cifar_resnet_profile()
    scaled = LossCurveSimulator(profile)
    scaled.run_schedule(
        [(initial_batch, switch_epoch), (scaled_batch, total_epochs - switch_epoch)]
    )
    fixed = LossCurveSimulator(profile)
    fixed.run_schedule([(initial_batch, total_epochs)])
    return {
        "epochs": np.arange(1, total_epochs + 1),
        "scaled_batch": np.asarray(scaled.losses),
        "fixed_batch": np.asarray(fixed.losses),
        "switch_epoch": np.asarray([switch_epoch]),
    }


def figure14_gradual_scaling(
    stages: Sequence[Tuple[int, int]] = ((256, 30), (1024, 30), (4096, 30)),
) -> Dict[str, np.ndarray]:
    """Loss curve when the batch size grows gradually (256 → 1024 → 4096)."""
    profile = _cifar_resnet_profile()
    sim = LossCurveSimulator(profile)
    losses = sim.run_schedule(list(stages))
    boundaries = np.cumsum([epochs for _, epochs in stages])
    return {
        "epochs": np.arange(1, len(losses) + 1),
        "loss": losses,
        "stage_boundaries": boundaries,
        "stage_batches": np.asarray([batch for batch, _ in stages]),
    }


# --------------------------------------------------------------------------------------------------
# Table 2 / Table 3
# --------------------------------------------------------------------------------------------------


def table2_workload_catalog() -> Dict[str, int]:
    """Counts of workload templates per task/dataset (must total 50)."""
    return catalog_summary()


def table3_capabilities() -> Sequence[Dict[str, str]]:
    """The scheduler-capability matrix."""
    from repro.baselines.drl import DRLScheduler
    from repro.baselines.optimus import OptimusScheduler
    from repro.baselines.tiresias import TiresiasScheduler

    schedulers: Sequence[SchedulerBase] = (
        ONESScheduler(),
        DRLScheduler(),
        TiresiasScheduler(),
        OptimusScheduler(),
    )
    return [scheduler.describe() for scheduler in schedulers]


# --------------------------------------------------------------------------------------------------
# Fig. 16 — scaling overhead
# --------------------------------------------------------------------------------------------------


def figure16_overheads(
    model_names: Sequence[str] = (
        "alexnet",
        "resnet18",
        "resnet50",
        "vgg16",
        "googlenet",
        "inceptionv3",
        "lstm",
    ),
) -> Dict[str, Dict[str, float]]:
    """Elastic vs checkpoint-based re-configuration overhead per model."""
    overheads = OverheadModel()
    return overheads.comparison_table({name: get_model(name) for name in model_names})


"""Shared fixtures and factories for the test suite."""

from __future__ import annotations

# Importing the package first pins the BLAS and OpenMP pools to one
# thread before numpy sizes them (a value set in the environment still
# wins); on two CPUs unpinned pools oversubscribe every ONES run's GPR.
import repro  # noqa: F401

import numpy as np
import pytest

from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.cluster.topology import ClusterTopology, make_longhorn_cluster
from repro.jobs.convergence import ConvergenceProfile
from repro.jobs.job import Job, JobSpec
from repro.jobs.model_zoo import get_model
from repro.jobs.throughput import ThroughputModel
from repro.workload.tasks import build_workload_catalog, make_job_spec
from repro.workload.trace import TraceConfig, TraceGenerator


def gpu_count(allocation: Allocation, job_id: str) -> int:
    """Number of GPUs ``job_id`` holds under ``allocation``."""
    return len(allocation.gpus_of(job_id))


def global_batch(allocation: Allocation, job_id: str) -> int:
    """Global batch of ``job_id`` under ``allocation`` (0 when unplaced)."""
    config = allocation.config_of(job_id)
    return sum(config.local_batches) if config is not None else 0


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_topology() -> ClusterTopology:
    """A 2-node / 8-GPU Longhorn-like cluster."""
    return make_longhorn_cluster(8)


@pytest.fixture
def topology16() -> ClusterTopology:
    """A 4-node / 16-GPU Longhorn-like cluster."""
    return make_longhorn_cluster(16)


@pytest.fixture
def throughput_model(small_topology) -> ThroughputModel:
    """Throughput model over the small cluster."""
    return ThroughputModel(small_topology)


def make_profile(
    base_epochs: float = 5.0,
    target: float = 0.8,
    max_acc: float = 0.9,
    critical_batch: int = 512,
) -> ConvergenceProfile:
    """A small convergence profile for unit tests."""
    return ConvergenceProfile(
        base_epochs_to_target=base_epochs,
        target_accuracy=target,
        max_accuracy=max_acc,
        initial_loss=2.3,
        final_loss=0.1,
        reference_batch=128,
        critical_batch=critical_batch,
    )


def make_spec(
    job_id: str = "job-a",
    model_name: str = "resnet18",
    dataset_size: int = 4000,
    base_batch: int = 128,
    requested_gpus: int = 1,
    arrival_time: float = 0.0,
    base_epochs: float = 5.0,
    patience: int = 3,
) -> JobSpec:
    """A compact job spec whose jobs finish in a handful of epochs."""
    return JobSpec(
        job_id=job_id,
        task=f"test-{model_name}",
        model=get_model(model_name),
        dataset="testset",
        dataset_size=dataset_size,
        num_classes=10,
        convergence=make_profile(base_epochs=base_epochs),
        base_batch=base_batch,
        base_lr=0.1,
        requested_gpus=requested_gpus,
        arrival_time=arrival_time,
        convergence_patience=patience,
    )


def make_job(**kwargs) -> Job:
    """A fresh Job built from :func:`make_spec`."""
    return Job(make_spec(**kwargs))


def make_running_job(
    job_id: str = "job-a",
    gpu_ids=(0,),
    local_batches=(128,),
    now: float = 0.0,
    **kwargs,
) -> Job:
    """A Job already running on the given GPUs."""
    job = make_job(job_id=job_id, **kwargs)
    job.start_running(now, gpu_ids=list(gpu_ids), local_batches=list(local_batches))
    return job


@pytest.fixture
def job_factory():
    """Factory fixture returning :func:`make_job`."""
    return make_job


@pytest.fixture
def spec_factory():
    """Factory fixture returning :func:`make_spec`."""
    return make_spec


@pytest.fixture
def running_job_factory():
    """Factory fixture returning :func:`make_running_job`."""
    return make_running_job


@pytest.fixture
def small_trace():
    """A 6-job trace drawn from the Table-2 catalogue."""
    config = TraceConfig(num_jobs=6, arrival_rate=1.0 / 10.0)
    return TraceGenerator(config, seed=5).generate()


@pytest.fixture
def tiny_trace():
    """A 3-job trace of quick jobs for fast end-to-end tests."""
    catalog = build_workload_catalog()
    cifar = [t for t in catalog if t.dataset == "cifar10"][:3]
    specs = []
    for i, template in enumerate(cifar):
        spec = make_job_spec(
            template,
            job_id=f"tiny-{i}",
            arrival_time=float(5 * i),
            requested_gpus=1,
            convergence_patience=3,
        )
        specs.append(spec)
    return specs


@pytest.fixture
def simple_allocation() -> Allocation:
    """Two jobs on four GPUs."""
    return Allocation(
        {
            0: WorkerAssignment("job-a", 64),
            1: WorkerAssignment("job-a", 64),
            2: WorkerAssignment("job-b", 32),
            3: WorkerAssignment("job-b", 32),
        }
    )

"""repro — a reproduction of ONES (SC'21).

*Online Evolutionary Batch Size Orchestration for Scheduling Deep
Learning Workloads in GPU Clusters* (Bian, Li, Wang, You — SC 2021).

The package layers, bottom-up:

* :mod:`repro.utils` — RNG, units, validation, summary statistics.
* :mod:`repro.cluster` — the simulated GPU cluster (devices, topology,
  allocations, events).
* :mod:`repro.jobs` — analytic throughput/convergence models of DL
  training jobs and their runtime state.
* :mod:`repro.workload` — the Table-2 workload catalogue and trace
  generation.
* :mod:`repro.prediction` — the online progress predictor (Beta
  distributions over training progress, GPR / Bayesian-linear backends).
* :mod:`repro.scaling` — elastic batch-size scaling: the
  re-configuration overhead model.
* :mod:`repro.core` — ONES itself: schedule genomes, SRUF scoring,
  batch-size limits, evolution operators and the scheduler.
* :mod:`repro.baselines` — DRL, Tiresias, Optimus (and reference FIFO /
  SRTF policies) behind a common scheduler interface.
* :mod:`repro.sim` — the discrete-event cluster simulator.
* :mod:`repro.analysis` — metrics, Wilcoxon tests, text reporting.
* :mod:`repro.experiments` — declarative experiment grids, the runner
  and its backends, and the analytic figure/table generators.

Each subpackage's ``__init__`` only documents it: import names from the
module that defines them, so a process loads only the layers it uses.
This package's ``__init__`` also pins the BLAS and OpenMP thread pools
to one thread (below), because every entry point imports it first.

Quickstart
----------
>>> from repro.analysis.metrics import mean_metric
>>> from repro.experiments.orchestrator import Runner
>>> from repro.experiments.spec import ExperimentSpec
>>> from repro.workload.trace import TraceConfig
>>> spec = ExperimentSpec.comparison(
...     num_gpus=16, seed=2021, trace=TraceConfig(num_jobs=8, arrival_rate=1 / 30)
... )
>>> sweep = Runner().run(spec)                       # doctest: +SKIP
>>> {name: mean_metric(result, "jct")                # doctest: +SKIP
...  for name, result in sweep.results_for(16).items()}
"""

import os

# BLAS and OpenMP pools are sized when the library loads, and importing
# this package is the first thing the CLI, ``python -m
# repro.experiments.worker`` and every cell subprocess do, so the pin
# lands before numpy or scipy load; forked pools inherit the pinned
# parent.  A value set in the environment still wins.  Live pools
# oversubscribe two CPUs when numpy's and scipy's OpenBLAS builds meet
# in one GPR refit (``prediction/gpr.py``).
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

__version__ = "1.0.0"

"""One repetition of one workload, in the fresh interpreter it was started in.

Usage: ``python3 perfbench/rep.py --workload NAME --seed N [--scale X]
[--trace-out FILE]``.  Prints one JSON object on its last
line of stdout.

The set-up time covers importing the workload's modules and building its
topology, scheduler and simulator or service; generating the inputs is not
timed.  With ``--trace-out`` the run is traced (see ``tracing.py``): the
report adds the per-layer table and the spans go to FILE.

Every time the repetition reports is in reference seconds: the time the
program took, times the speed the :class:`SpeedProbe` measured while it
ran.  The report keeps both speeds.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib-only at import time)

# BLAS and OpenMP pools are sized when numpy loads, so pin them first.
workloads.pin_threads()


class SpeedProbe:
    """How fast this machine ran, relative to a reference, while active.

    On a shared VM the same code ran up to twice as slow for seconds at a
    time as other tenants loaded the host, in CPU time as much as in wall
    time, so no process clock hides it.  While active, a ``SIGALRM`` timer
    runs a fixed pure-Python kernel every ``PERIOD_S`` of wall time, in
    between whatever the program is executing; :meth:`speed` is the mean of
    ``REFERENCE_S`` over the kernel's times.  :meth:`clock` is
    ``perf_counter`` minus the time the probe took, so the program's
    timings leave the probe out.
    """

    PERIOD_S = 0.05
    #: The kernel's typical time when it interrupts a workload on a 2-vCPU
    #: x86_64 VM under Python 3.11.7, so that a reference second there is
    #: about one second.
    REFERENCE_S = 0.7e-3

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent = 0.0

    @staticmethod
    def kernel() -> int:
        table: dict = {}
        total = 0
        for i in range(2000):
            table[i % 97] = table.get(i % 97, 0) + i
            total += len(str(i))
        return total

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *_exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean speed over the samples; 1.0 when none was taken."""
        if not self.samples:
            return 1.0
        return statistics.fmean(self.REFERENCE_S / took for took in self.samples)


def environment() -> dict:
    """Interpreter, numpy/scipy and BLAS part of the result fingerprint."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count OpenBLAS reports at run time, else the pinning variable."""
    import ctypes
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        library = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def percentile(values, q):
    import numpy

    return float(numpy.percentile(numpy.asarray(values), q)) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    with SpeedProbe() as setup:
        start = setup.clock()
        for module in workload.modules:
            importlib.import_module(module)
        import_s = setup.clock() - start

        inputs = workload.generate(args.seed, args.scale)

        start = setup.clock()
        built = workload.build(inputs)
        build_s = setup.clock() - start
    import_s *= setup.speed()
    build_s *= setup.speed()

    decisions: list = []
    recorder = None
    restore = None
    with SpeedProbe() as run:
        if args.trace_out is not None:
            import tracing

            recorder = tracing.SpanRecorder(run.clock)
            restore = tracing.instrument(recorder)
        try:
            outcome = workload.drive(built, decisions, run.clock)
        finally:
            if restore is not None:
                restore()
    speed = run.speed()

    result = outcome.result
    completed = len(result.completed)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": recorder is not None,
        "import_s": import_s,
        "build_s": build_s,
        "setup_s": import_s + build_s,
        "setup_speed": setup.speed(),
        "speed": speed,
        "wall_s": outcome.wall_s * speed,
        "avg_jct_s": result.average_jct if completed else 0.0,
        "makespan_s": result.makespan,
        "completed_frac": completed / outcome.jobs_sent,
        "events": result.events_processed,
        "jobs_sent": outcome.jobs_sent,
        "trajectory": workloads.trajectory_hash(result),
        "inputs_sha256": workloads.inputs_digest(inputs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks_failed": workload.checks(built, outcome),
        "environment": environment(),
        "decisions": len(decisions),
        "decision_p50_ms": 1e3 * speed * percentile(decisions, 50),
        "decision_p99_ms": 1e3 * speed * percentile(decisions, 99),
    }
    if recorder is not None:
        report["layers"] = layers(recorder, outcome, speed, import_s, build_s)
        report["unwrapped"] = recorder.unwrapped
        recorder.write_jsonl(
            args.trace_out,
            {
                "workload": workload.name,
                "seed": args.seed,
                "wall_s": outcome.wall_s,
                "speed": speed,
                "unwrapped": recorder.unwrapped,
            },
        )
    print(json.dumps(report))
    return 0


def layers(recorder, outcome, speed: float, import_s: float, build_s: float) -> dict:
    """The per-layer table of a traced run, its times in reference seconds."""
    import tracing

    metrics = tracing.layer_metrics(recorder)
    coverage = tracing.self_time_total(metrics) / outcome.wall_s
    for name in tracing.TIMES:
        metrics[name] *= speed
    counters = outcome.counters
    result = outcome.result
    searches = recorder.names.count("core.evolve")
    full_updates = counters.get("full_updates", 0)
    delta = counters.get("scoring_delta_generations", 0)
    rebuilds = counters.get("scoring_full_rebuilds", 0)
    reuses = counters.get("throughput_table_reuses", 0)
    built = metrics["jobs.tables_built"]
    faults = result.faults
    metrics.update(
        {
            "repro.import_s": import_s,
            "repro.build_s": build_s,
            "sim.events": result.events_processed,
            "core.full_updates": full_updates,
            "core.incremental_fills": counters.get("incremental_fills", 0),
            "core.deploy_ratio": full_updates / searches if searches else 0.0,
            "core.scoring_delta_ratio": delta / (delta + rebuilds) if delta + rebuilds else 0.0,
            "core.table_reuse_ratio": reuses / (reuses + built) if reuses + built else 0.0,
            "faults.evictions": faults.get("evictions", 0.0),
            "faults.restarts": faults.get("restarts", 0.0),
            "faults.goodput": faults.get("goodput", 0.0),
            "service.refused_frac": outcome.refused / outcome.jobs_sent,
            "service.stream_dropped": outcome.stream_dropped,
            "bench.layer_coverage": coverage,
        }
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface for the ONES reproduction.

Installed as the ``repro-ones`` console script (also runnable as
``python -m repro.cli``).  Sub-commands:

``trace``
    Generate a Table-2 workload trace and write it to JSON.
``run``
    Replay a trace (or a freshly generated one) under one scheduler and
    print / export the resulting metrics.
``compare``
    Run the Fig. 15 comparison (ONES vs DRL / Tiresias / Optimus) on a
    shared trace and print averages, improvements and Wilcoxon tests.
``sweep``
    Run the Fig. 17/18 scalability sweep over several cluster sizes
    (and optionally several seeds).
``worker``
    Attach a queue worker to a durable queue directory (see below).
``queue-status``
    Inspect a queue directory: per-state cell counts and per-cell rows.
``serve``
    Stand up the scheduler service: a live simulator accepting online
    job submissions over a JSONL/TCP socket (see
    :mod:`repro.service`).
``submit``
    Submit one job — or an arrival-profile-driven batch — to a running
    service and print the placement decisions.
``service-status``
    Query a running service: control-plane status, ``--metrics`` for
    decision-latency histograms, or ``--drain`` to run it dry.
``schedulers``
    List every scheduler in the registry with its Table-3 capabilities.
``fault-profiles``
    List the registered fault-injection profiles (``mtbf``, ``rack``,
    ``maintenance``, ``stragglers``, ...).
``figures``
    Regenerate the analytic figures (2, 3, 13, 14, 16) without running
    cluster simulations.

``compare`` and ``sweep`` accept ``--faults <profile>`` (or
``--faults-file plan.json``): the grid then runs every cell twice — once
clean, once under the seeded fault plan — and reports recovery metrics
(goodput, evictions, restarts, lost GPU-seconds) plus the JCT
degradation of each scheduler against its zero-fault twin.

``compare`` and ``sweep`` are built on the declarative orchestration
API: the grid is an :class:`~repro.experiments.spec.ExperimentSpec`
executed by a :class:`~repro.experiments.orchestrator.Runner`.
``--workers N`` fans the grid's cells out over a process pool (results
are bit-identical to serial execution), ``--output-dir`` persists every
cell artifact plus the sweep JSON and a Markdown report, and
``--resume`` skips cells whose artifacts are already cached there.

``--backend queue --queue-dir DIR`` switches to the durable lease-based
work queue: cells are enqueued into ``DIR`` (idempotently, by content
key), ``--workers N`` local worker processes are spawned (0 = wait for
external workers started with ``repro-ones worker DIR`` on any host
sharing the filesystem), and the sweep survives worker churn — a killed
worker's lease expires and its cell is re-claimed.  Cells that exhaust
``--cell-retries`` end DEAD and are reported with a failure table and a
non-zero exit, never silently dropped.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.analysis.export import (
    export_comparison_csv,
    export_comparison_json,
    export_result_csv,
    export_result_json,
    export_sweep_json,
)
from repro.analysis.metrics import improvement_over, mean_metric
from repro.analysis.reporting import ascii_bar_chart, ascii_series, format_table
from repro.analysis.stats import significance_table
from repro.experiments.orchestrator import Runner
from repro.experiments.registry import (
    available_schedulers,
    capabilities_table,
    create_scheduler,
    paper_schedulers,
    resolve,
)
from repro.experiments.spec import ExperimentSpec
from repro.experiments.backends import CellTimeoutError, simulate_trace
from repro.faults.config import FaultConfig
from repro.faults.profiles import available_profiles, profile_table
from repro.sim.simulator import SimulationConfig
from repro.workload.replay import load_trace, save_trace, trace_statistics
from repro.workload.trace import TraceConfig, TraceGenerator

class _RegistryView:
    """Live lowercase-name view of the scheduler registry.

    Kept under the historical ``SCHEDULERS`` name for backwards
    compatibility; reading it always reflects the *current* registry, so
    schedulers registered after this module was imported are reachable
    from the CLI too.
    """

    def _names(self) -> List[str]:
        return [name.lower() for name in available_schedulers()]

    def __iter__(self):
        return iter(self._names())

    def __len__(self) -> int:
        return len(self._names())

    def __contains__(self, name: object) -> bool:
        return str(name).lower() in self._names()

    def __getitem__(self, name: str):
        canonical = resolve(name).name
        return lambda seed: create_scheduler(canonical, seed)

    def keys(self):
        return self._names()


#: CLI name -> seed-only scheduler factory (a live registry view).
SCHEDULERS = _RegistryView()


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-ones",
        description="Reproduction of ONES (SC'21): online evolutionary batch size orchestration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser(
        "trace",
        help="generate a workload trace, or inspect a recorded execution trace",
        description="Without a positional argument: generate a workload trace "
                    "(--output required). With TRACE_FILE: inspect a JSONL "
                    "execution trace written by --trace-out (summary, span "
                    "tree, filters, Chrome/Perfetto export).",
    )
    trace.add_argument("trace_file", type=Path, nargs="?", default=None,
                       help="a --trace-out JSONL file to inspect instead of "
                            "generating a workload trace")
    trace.add_argument("--jobs", type=int, default=50)
    trace.add_argument("--arrival-interval", type=float, default=30.0,
                       help="mean seconds between arrivals")
    trace.add_argument("--seed", type=int, default=2021)
    trace.add_argument("--output", type=Path, default=None,
                       help="JSON file to write (required when generating)")
    trace.add_argument("--tree", action="store_true",
                       help="inspector: print the nested span/event tree")
    trace.add_argument("--filter-cat", default=None, metavar="SUBSTR",
                       help="inspector: only records whose category contains SUBSTR")
    trace.add_argument("--filter-name", default=None, metavar="SUBSTR",
                       help="inspector: only records whose name contains SUBSTR")
    trace.add_argument("--limit", type=int, default=200, metavar="N",
                       help="inspector: cap the number of tree lines (default 200)")
    trace.add_argument("--chrome", type=Path, default=None, metavar="OUT",
                       help="inspector: export Chrome trace_event JSON "
                            "(open in Perfetto / chrome://tracing)")

    run = sub.add_parser("run", help="run one scheduler over a trace")
    run.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="ones")
    run.add_argument("--gpus", type=int, default=64, help="cluster size (multiple of 4)")
    run.add_argument("--jobs", type=int, default=50, help="trace size when generating")
    run.add_argument("--arrival-interval", type=float, default=30.0)
    run.add_argument("--trace", type=Path, default=None, help="replay an existing trace JSON")
    run.add_argument("--seed", type=int, default=2021)
    run.add_argument("--profile", action="store_true",
                     help="record per-phase wall-clock (ledger advance, handlers, "
                          "GPR refits, evolution operators) and print it after "
                          "the summary")
    _add_partition_arguments(run)
    run.add_argument("--csv", type=Path, default=None, help="export per-job metrics to CSV")
    run.add_argument("--json", type=Path, default=None, help="export run summary to JSON")
    run.add_argument("--trace-out", type=Path, default=None, metavar="PATH",
                     help="record a structured execution trace (reconfig "
                          "decisions, evolution generations, faults) and write "
                          "it as JSONL; inspect with `repro-ones trace PATH`")

    compare = sub.add_parser("compare", help="compare ONES against the paper baselines")
    compare.add_argument("--schedulers", "--scheduler", nargs="+",
                         choices=sorted(SCHEDULERS),
                         default=None, metavar="NAME",
                         help="registry names to compare (default: the paper's four)")
    compare.add_argument("--gpus", type=int, default=64)
    compare.add_argument("--jobs", type=int, default=50)
    compare.add_argument("--arrival-interval", type=float, default=30.0)
    compare.add_argument("--seed", type=int, default=2021)
    _add_partition_arguments(compare)
    _add_backend_arguments(compare)
    compare.add_argument("--profile", action="store_true",
                         help="record per-phase wall-clock in every cell artifact "
                              "and print a summary")
    _add_fault_arguments(compare)
    compare.add_argument("--csv", type=Path, default=None)
    compare.add_argument("--json", type=Path, default=None)
    compare.add_argument("--report", type=Path, default=None,
                         help="write a Markdown report of the comparison")
    compare.add_argument("--trace-out", type=Path, default=None, metavar="PATH",
                         help="record a structured execution trace of every "
                              "cell (serial backend only) and write it as JSONL")

    sweep = sub.add_parser("sweep", help="scalability sweep over cluster capacities")
    sweep.add_argument("--capacities", type=int, nargs="+", default=[16, 32, 48, 64])
    sweep.add_argument("--schedulers", nargs="+", choices=sorted(SCHEDULERS),
                       default=None, metavar="NAME",
                       help="registry names to compare (default: the paper's four)")
    sweep.add_argument("--jobs", type=int, default=50)
    sweep.add_argument("--traces", type=int, nargs="+", default=None, metavar="JOBS",
                       help="trace sizes for a multi-trace grid (one trace per "
                            "job count; overrides --jobs; metrics average over traces)")
    sweep.add_argument("--arrival-interval", type=float, default=30.0)
    sweep.add_argument("--seeds", type=int, nargs="+", default=[2021],
                       help="one run per (scheduler, capacity, seed, trace) cell")
    _add_partition_arguments(sweep)
    sweep.add_argument("--partition-sizes", type=int, nargs="+", default=None,
                       metavar="GPUS",
                       help="grid axis over ONES-hier shard sizes: one run of "
                            "every cell per size (overrides --partition-size)")
    _add_backend_arguments(sweep)
    sweep.add_argument("--profile", action="store_true",
                       help="record per-phase wall-clock (ledger advance, handlers, "
                            "GPR refits) in every cell artifact and print a summary")
    _add_fault_arguments(sweep)
    sweep.add_argument("--json", type=Path, default=None)

    worker = sub.add_parser(
        "worker",
        help="attach a queue worker to a durable queue directory",
        description="Claim and execute cells from a queue directory created by "
                    "`compare`/`sweep --backend queue`. Start any number of these, "
                    "on any host sharing the filesystem; kill them freely — an "
                    "interrupted cell's lease expires and the cell is re-claimed.",
    )
    worker.add_argument("queue_dir", type=Path)
    worker.add_argument("--worker-id", default=None,
                        help="stable worker name for the log (default: random)")
    worker.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                        help="override the queue's lease TTL for this worker")
    worker.add_argument("--skew-margin", type=float, default=None, metavar="SECONDS",
                        help="override the queue's clock-skew safety margin on "
                             "lease-expiry checks")
    worker.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="idle poll interval when no cell is claimable")
    worker.add_argument("--exit-when-done", action="store_true",
                        help="exit once every cell is COMPLETED or DEAD")
    worker.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit after settling N cells (ephemeral-worker mode)")
    worker.add_argument("--hold-s", type=float, default=0.0, metavar="SECONDS",
                        help="chaos hook: sleep between claiming and executing "
                             "(gives kill-mid-cell drills a window)")
    worker.add_argument("--quiet", action="store_true")
    worker.add_argument("--trace-out", type=Path, default=None, metavar="PATH",
                        help="record queue lease transitions (claim/heartbeat/"
                             "complete/expire/dead) and execute spans; written "
                             "as JSONL on exit")

    qstatus = sub.add_parser("queue-status",
                             help="inspect a durable queue directory")
    qstatus.add_argument("queue_dir", type=Path)
    qstatus.add_argument("--cells", action="store_true",
                         help="also print one row per cell")
    qstatus.add_argument("--since", type=float, default=None, metavar="SECONDS",
                         help="with --cells: only cells whose newest event-log "
                              "record is at most SECONDS old")
    qstatus.add_argument("--json", action="store_true",
                         help="emit a machine-readable snapshot (states, cells, "
                              "lease ages) instead of the tables")

    serve = sub.add_parser(
        "serve",
        help="run the scheduler service (online submissions over JSONL/TCP)",
        description="Stand up a live simulated cluster behind a JSONL-over-TCP "
                    "submission API. In --mode virtual the clock advances only "
                    "with events (deterministic replay); in --mode wall it "
                    "follows wall-clock at --time-scale virtual seconds per "
                    "second. Stop with SIGTERM/SIGINT (clean exit) or the "
                    "client's shutdown op.",
    )
    serve.add_argument("--scheduler", choices=sorted(SCHEDULERS), default="ones")
    serve.add_argument("--gpus", type=int, default=64, help="cluster size (multiple of 4)")
    serve.add_argument("--seed", type=int, default=2021)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (default 7061; 0 picks an ephemeral port)")
    serve.add_argument("--mode", choices=["virtual", "wall"], default="virtual")
    serve.add_argument("--time-scale", type=float, default=60.0,
                       help="virtual seconds per wall second in wall mode")
    serve.add_argument("--max-time", type=float, default=14 * 24 * 3600.0,
                       help="virtual-time horizon of the service (seconds)")
    serve.add_argument("--tenant", action="append", default=None, metavar="NAME[:GPUS[:JOBS]]",
                       help="register a tenant with optional max outstanding GPUs "
                            "and max active jobs; repeatable. No --tenant = open "
                            "admission (tenants auto-register unlimited)")
    serve.add_argument("--trace-out", type=Path, default=None, metavar="PATH",
                       help="record admit/reject decisions and kernel events "
                            "for the service's lifetime; written as JSONL on "
                            "shutdown")

    submit = sub.add_parser(
        "submit",
        help="submit jobs to a running scheduler service",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=None)
    submit.add_argument("--tenant", required=True)
    submit.add_argument("--job-type", choices=["cv", "nlp", "any"], default="any")
    submit.add_argument("--workload", default="",
                        help="concrete Table-2 template name (overrides --job-type)")
    submit.add_argument("--replicas", type=int, default=1)
    submit.add_argument("--gpus-per-replica", type=int, default=1)
    submit.add_argument("--name", default="", help="client label echoed in decisions")
    submit.add_argument("--at", type=float, default=None, metavar="T",
                        help="explicit virtual arrival time (default: service clock)")
    submit.add_argument("--count", type=int, default=1,
                        help="submit a batch of N jobs driven by --arrival-profile")
    submit.add_argument("--arrival-profile", choices=["poisson", "diurnal", "bursty"],
                        default="poisson",
                        help="arrival process for --count > 1 batches")
    submit.add_argument("--arrival-interval", type=float, default=30.0,
                        help="mean seconds between batch arrivals")
    submit.add_argument("--arrival-seed", type=int, default=2021)
    submit.add_argument("--json", action="store_true",
                        help="print raw decision JSON, one object per line")

    svc_status = sub.add_parser(
        "service-status",
        help="query a running scheduler service",
    )
    svc_status.add_argument("--host", default="127.0.0.1")
    svc_status.add_argument("--port", type=int, default=None)
    svc_status.add_argument("--metrics", action="store_true",
                            help="also print decision-latency and goodput metrics")
    svc_status.add_argument("--drain", action="store_true",
                            help="close the submission stream, run the cluster dry "
                                 "and print the final result summary")
    svc_status.add_argument("--json", action="store_true",
                            help="emit raw JSON instead of tables")

    scheds = sub.add_parser("schedulers", help="list the scheduler registry (Table 3)")
    scheds.add_argument("--paper-only", action="store_true",
                        help="only the four schedulers of the paper's comparison")

    sub.add_parser("fault-profiles",
                   help="list the registered fault-injection profiles")

    figs = sub.add_parser("figures", help="regenerate the analytic figures (2, 3, 13, 14, 16)")
    figs.add_argument("--which", choices=["fig2", "fig3", "fig13", "fig14", "fig16", "all"],
                      default="all")

    return parser


def _add_partition_arguments(parser: argparse.ArgumentParser) -> None:
    """The hierarchical-scheduler flags shared by ``run``/``compare``/``sweep``.

    They only apply to the ``ONES-hier`` scheduler (a hint is raised when
    it is not part of the run); see :mod:`repro.core.partitioned`.
    """
    group = parser.add_argument_group(
        "hierarchical scheduling (ONES-hier)",
        "partition the cluster into fixed-size shards, one independent "
        "ONES search per shard plus a global reconciler",
    )
    group.add_argument("--partition-size", type=int, default=None, metavar="GPUS",
                       help="shard size in GPUs (default 64, the paper scale; "
                            "must tile the cluster in whole nodes)")
    group.add_argument("--partition-workers", type=int, default=None, metavar="N",
                       help="process-pool size for evolving multiple dirty "
                            "partitions concurrently (default: sequential)")


def _hier_options(args) -> Dict[str, object]:
    """The ``ONES-hier`` factory options implied by the partition flags."""
    options: Dict[str, object] = {}
    if getattr(args, "partition_size", None) is not None:
        options["partition_size"] = int(args.partition_size)
    if getattr(args, "partition_workers", None) is not None:
        options["parallel_workers"] = int(args.partition_workers)
    return options


def _add_backend_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared execution-backend flags of ``compare`` and ``sweep``."""
    group = parser.add_argument_group(
        "execution backend",
        "where and how the grid's cells run; all backends produce "
        "bit-identical artifacts",
    )
    group.add_argument("--backend", choices=["serial", "process", "queue"],
                       default=None,
                       help="cell execution backend (default: serial, or process "
                            "when --workers > 1)")
    group.add_argument("--workers", type=int, default=1,
                       help="process pool size, or number of locally-spawned queue "
                            "workers (0 with --backend queue = external workers only)")
    group.add_argument("--queue-dir", type=Path, default=None,
                       help="durable queue directory for --backend queue (created "
                            "if missing; re-running against it resumes from its log)")
    group.add_argument("--lease-ttl", type=float, default=30.0, metavar="SECONDS",
                       help="queue lease TTL: how long after a worker stops "
                            "heartbeating its cell returns to pending (default 30)")
    group.add_argument("--output-dir", type=Path, default=None,
                       help="persist per-cell artifacts, sweep JSON and report here")
    group.add_argument("--resume", action="store_true",
                       help="reuse cell artifacts cached in --output-dir")
    group.add_argument("--cell-timeout", type=float, default=None, metavar="SECONDS",
                       help="kill any cell attempt exceeding this wall-clock budget")
    group.add_argument("--cell-retries", type=int, default=None, metavar="N",
                       help="retry a timed-out / failed cell up to N extra times "
                            "(default 0; default 2 with --backend queue, where "
                            "worker-death retries ride on the same budget)")
    group.add_argument("--cell-backoff", type=float, default=0.0, metavar="SECONDS",
                       help="base delay before a cell retry, doubled per extra "
                            "attempt (default 0: retry immediately)")


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--faults*`` flags of ``compare`` and ``sweep``."""
    group = parser.add_argument_group(
        "fault injection",
        "run every cell twice — clean and under a deterministic fault plan — "
        "and report recovery metrics vs the zero-fault twin",
    )
    group.add_argument("--faults", choices=sorted(available_profiles()) + ["none"],
                       default="none", metavar="PROFILE",
                       help="fault profile to inject (see `repro-ones fault-profiles`; "
                            "default: none)")
    group.add_argument("--faults-file", type=Path, default=None,
                       help="replay an explicit fault plan from JSON "
                            "(overrides --faults)")
    group.add_argument("--fault-seed", type=int, default=2021,
                       help="seed of the fault plan's own RNG (independent of the "
                            "workload seed)")
    group.add_argument("--fault-mtbf-hours", type=float, default=2.0,
                       help="mean time between failures per node/rack")
    group.add_argument("--fault-repair-minutes", type=float, default=15.0,
                       help="mean repair / maintenance-window duration")


def _fault_config(args) -> Optional[FaultConfig]:
    """The fault config implied by the CLI flags (``None`` when disabled)."""
    if getattr(args, "faults_file", None):
        return FaultConfig.from_plan_file(
            args.faults_file, seed=args.fault_seed
        )
    profile = getattr(args, "faults", "none")
    if not profile or profile == "none":
        return None
    return FaultConfig(
        profile=profile,
        seed=args.fault_seed,
        mtbf_hours=args.fault_mtbf_hours,
        repair_minutes=args.fault_repair_minutes,
    )


def _canonical_names(names: Optional[Sequence[str]]) -> List[str]:
    """CLI scheduler names (any case) -> canonical registry names."""
    if names is None:
        return list(paper_schedulers())
    return [resolve(name).name for name in names]


def _dedupe(values: Sequence) -> tuple:
    """Drop repeated CLI values, keeping first-seen order.

    Repeats are tolerated (``--capacities 16 16`` just runs 16 once)
    rather than rejected by the spec's duplicate validation.
    """
    return tuple(dict.fromkeys(values))


def _experiment_spec(args, capacities: Sequence[int], seeds: Sequence[int]) -> ExperimentSpec:
    job_counts = getattr(args, "traces", None) or [args.jobs]
    traces = tuple(
        TraceConfig(num_jobs=int(jobs), arrival_rate=1.0 / args.arrival_interval)
        for jobs in _dedupe(job_counts)
    )
    simulation = SimulationConfig(collect_profile=bool(getattr(args, "profile", False)))
    fault = _fault_config(args)
    schedulers = _dedupe(_canonical_names(args.schedulers))
    hier = _hier_options(args)
    sizes = getattr(args, "partition_sizes", None)
    if (hier or sizes) and "ONES-hier" not in schedulers:
        raise SystemExit(
            "--partition-size/--partition-workers/--partition-sizes configure the "
            "ONES-hier scheduler; add it with --schedulers ones-hier"
        )
    option_axis: tuple = ({},)
    if sizes:
        hier.pop("partition_size", None)  # the axis owns the shard size
        option_axis = tuple(
            {"ONES-hier": {"partition_size": int(size)}} for size in _dedupe(sizes)
        )
    return ExperimentSpec(
        schedulers=schedulers,
        capacities=_dedupe(capacities),
        seeds=_dedupe(seeds),
        traces=traces,
        simulation=simulation,
        scheduler_options={"ONES-hier": hier} if hier else {},
        # A faulted grid always carries the zero-fault twin of every
        # cell, so recovery metrics have a baseline to compare against.
        faults=(None, fault) if fault is not None else (None,),
        option_axis=option_axis,
    )


def _print_recovery_summary(sweep) -> None:
    """Recovery tables printed by faulted ``compare`` / ``sweep`` runs."""
    if len(sweep.spec.faults) < 2:
        return
    fault = sweep.spec.faults[1]
    print()
    print(f"Fault injection: {fault.describe()} "
          f"(plan key {fault.config_key()[:8]}, twin cells included)")
    degradation = sweep.fault_degradation("jct")
    print("JCT degradation vs zero-fault twin (1.0 = fully absorbed):")
    for name, ratio in sorted(degradation.items(), key=lambda kv: kv[1]):
        print(f"  {name:10s}: {ratio:5.2f}x")
    rows = [
        {
            "cell": row["cell"],
            "avg_jct": round(row["average_jct"], 1),
            "goodput": round(row["goodput"], 3),
            "evict": row["evictions"],
            "restart": row["restarts"],
            "lost_gpu_s": round(row["lost_gpu_seconds"], 1),
            "down_gpu_s": round(row["downtime_gpu_seconds"], 1),
            "incomplete": row["incomplete"],
        }
        for row in sweep.recovery_table()
    ]
    if rows:
        print()
        print("Recovery metrics (faulted cells)")
        print(format_table(rows))


def _print_profile_summary(sweep) -> None:
    """Per-cell phase table for ``--profile`` runs (headline phases only)."""
    rows = []
    for run in sweep.runs:
        profile = run.result.profile
        if not profile:
            continue
        rows.append({
            "cell": f"{run.spec.label()}/{run.spec.trace.num_jobs}j",
            "total_s": round(profile.get("total_seconds", 0.0), 3),
            "advance_s": round(profile.get("advance_seconds", 0.0), 3),
            "epoch_end_s": round(profile.get("handler_epoch_end_seconds", 0.0), 3),
            "gpr_refit_s": round(profile.get("gpr_refit_seconds", 0.0), 3),
        })
    if rows:
        print()
        print("Per-phase wall-clock (--profile)")
        print(format_table(rows))


def _make_runner(args) -> Runner:
    if args.resume and not args.output_dir:
        raise SystemExit("--resume requires --output-dir (the cell cache lives there)")
    cache_dir = args.output_dir / "cells" if args.output_dir else None
    backend = args.backend
    if backend is None:
        backend = "process" if args.workers and args.workers > 1 else "serial"
    if backend == "queue" and args.queue_dir is None:
        raise SystemExit("--backend queue requires --queue-dir (the durable work "
                         "log and leases live there)")
    if backend != "queue" and args.queue_dir is not None:
        raise SystemExit("--queue-dir is only meaningful with --backend queue")
    retries = args.cell_retries
    if retries is None:
        # The queue's retry budget also absorbs worker deaths (an expired
        # lease is charged as an attempt), so give it headroom by default.
        retries = 2 if backend == "queue" else 0
    workers: Optional[int] = args.workers
    if backend == "serial":
        workers = None
    return Runner(backend=backend, workers=workers,
                  cache_dir=cache_dir,
                  timeout_s=args.cell_timeout,
                  max_retries=retries,
                  retry_backoff_s=args.cell_backoff,
                  queue_dir=args.queue_dir,
                  lease_ttl=args.lease_ttl)


def _report_failed_cells(sweep) -> int:
    """Failure gate of ``compare``/``sweep``: dead cells => table + exit 1.

    A queue sweep never raises on a poisoned cell — it finishes the grid
    and hands back placeholders — so partial success must be loud here
    instead: print one row per dead cell and make the process exit
    non-zero.
    """
    dead = sweep.dead_runs()
    if not dead:
        return 0
    print()
    print(f"ERROR: {len(dead)} of {len(sweep.runs)} cells ended dead "
          "(retry budget exhausted); results above exclude them")
    print(format_table([
        {
            "cell": run.spec.label(),
            "cell_key": run.spec.cell_key(),
            "error": (run.error or "")[:70],
        }
        for run in dead
    ]))
    return 1


# --- sub-command implementations ---------------------------------------------------------------


def cmd_trace(args) -> int:
    if args.trace_file is not None:
        return _inspect_trace(args)
    if args.output is None:
        raise SystemExit("--output is required when generating a workload trace "
                         "(pass a JSONL file as positional argument to inspect "
                         "an execution trace instead)")
    config = TraceConfig(num_jobs=args.jobs, arrival_rate=1.0 / args.arrival_interval)
    trace = TraceGenerator(config, seed=args.seed).generate()
    save_trace(trace, args.output)
    stats = trace_statistics(trace)
    print(f"Wrote {len(trace)} jobs to {args.output}")
    print(format_table([{"statistic": k, "value": round(v, 2)} for k, v in stats.items()]))
    return 0


def _inspect_trace(args) -> int:
    """The ``repro-ones trace TRACE_FILE`` inspector: summary/tree/export."""
    from repro.obs.trace import (
        export_chrome_trace,
        filter_records,
        format_tree,
        load_jsonl,
        summarize,
        validate_trace_file,
    )

    errors = validate_trace_file(str(args.trace_file))
    if errors:
        print(f"SCHEMA ERRORS in {args.trace_file}:")
        for message in errors[:20]:
            print(f"  {message}")
        if len(errors) > 20:
            print(f"  ... and {len(errors) - 20} more")
        return 1
    meta, records = load_jsonl(str(args.trace_file))
    records = filter_records(records, cat=args.filter_cat, name=args.filter_name)
    summary = summarize(records)
    dropped = meta.get("dropped", 0)
    print(f"Trace {args.trace_file}: {summary['records']} records "
          f"({summary['spans']} spans, {summary['events']} events"
          f"{f', {dropped} dropped by ring buffer' if dropped else ''}), "
          f"t = [{summary['t_min']:.6g}s .. {summary['t_max']:.6g}s]"
          if summary["records"]
          else f"Trace {args.trace_file}: 0 records match")
    if summary["records"]:
        print(format_table([
            {"category": cat, "records": count}
            for cat, count in summary["by_cat"].items()
        ]))
        print(format_table([
            {"name": name, "records": count}
            for name, count in summary["by_name"].items()
        ]))
    if args.tree:
        print()
        for line in format_tree(records, max_records=args.limit):
            print(line)
    if args.chrome:
        export_chrome_trace(records, str(args.chrome))
        print(f"Chrome trace written to {args.chrome} "
              f"(open in Perfetto: https://ui.perfetto.dev)")
    return 0


def _install_cli_tracer() -> "object":
    """Install a process-wide recorder for a ``--trace-out`` run."""
    from repro.obs.trace import TraceRecorder, install_tracer

    return install_tracer(TraceRecorder())


def _export_cli_trace(path) -> None:
    from repro.obs.trace import uninstall_tracer

    tracer = uninstall_tracer()
    if tracer is not None:
        count = tracer.export_jsonl(str(path))
        suffix = f" ({tracer.dropped} dropped by ring buffer)" if tracer.dropped else ""
        print(f"trace: {count} records written to {path}{suffix}")


def cmd_run(args) -> int:
    trace_config = TraceConfig(num_jobs=args.jobs, arrival_rate=1.0 / args.arrival_interval)
    canonical = resolve(args.scheduler).name
    options = _hier_options(args)
    if options and canonical != "ONES-hier":
        raise SystemExit(
            "--partition-size/--partition-workers configure the ONES-hier "
            "scheduler; pass --scheduler ones-hier"
        )
    scheduler = create_scheduler(canonical, args.seed, **options)
    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = TraceGenerator(trace_config, seed=args.seed).generate()
    simulation = SimulationConfig(collect_profile=bool(args.profile))
    if args.trace_out:
        _install_cli_tracer()
    result = simulate_trace(scheduler, trace, args.gpus, simulation)
    if args.trace_out:
        _export_cli_trace(args.trace_out)
    summary = result.summary()
    print(format_table([{"metric": k, "value": v} for k, v in summary.items()]))
    if args.profile and result.profile:
        print()
        print("Profile (wall-clock seconds per phase; events_* are counts):")
        print(format_table([
            {"phase": key, "value": f"{value:.6f}"}
            for key, value in sorted(result.profile.items())
        ]))
    if result.incomplete:
        print(f"WARNING: {len(result.incomplete)} jobs did not finish: {result.incomplete}")
    if args.csv:
        print(f"per-job metrics written to {export_result_csv(result, args.csv)}")
    if args.json:
        print(f"summary written to {export_result_json(result, args.json)}")
    return 0 if not result.incomplete else 1


def _run_grid(runner: Runner, spec: ExperimentSpec, resume: bool):
    """Execute the grid, turning a fatal cell failure into a clean exit.

    The serial/process backends raise on a cell that exhausts its retry
    budget; rather than a traceback, print what failed and exit non-zero
    (the queue backend instead finishes the grid with dead placeholders,
    reported by :func:`_report_failed_cells`).
    """
    try:
        return runner.run(spec, resume=resume)
    except (CellTimeoutError, RuntimeError) as exc:
        print(f"[runner] {runner.stats.describe()} ({runner.backend.name} backend)")
        print(f"ERROR: sweep aborted, a cell failed all its attempts: {exc}")
        raise SystemExit(1)


def cmd_compare(args) -> int:
    spec = _experiment_spec(args, capacities=[args.gpus], seeds=[args.seed])
    if args.trace_out:
        if args.backend not in (None, "serial") or args.workers > 1:
            raise SystemExit(
                "--trace-out records in-process: it requires the serial "
                "backend (drop --backend/--workers)"
            )
        _install_cli_tracer()
    runner = _make_runner(args)
    sweep = _run_grid(runner, spec, args.resume)
    if args.trace_out:
        _export_cli_trace(args.trace_out)
    print(f"[runner] {runner.stats.describe()} ({runner.backend.name} backend)")
    if sweep.dead_runs():
        if args.output_dir:
            _persist_sweep(sweep, args.output_dir)
        return _report_failed_cells(sweep)
    results = sweep.results_for()
    charts = []
    for metric, heading in (
        ("jct", "Average JCT (s)"),
        ("execution_time", "Average execution time (s)"),
        ("queuing_time", "Average queuing time (s)"),
    ):
        averages = {name: mean_metric(result, metric) for name, result in results.items()}
        charts.append(f"{heading}\n{ascii_bar_chart(averages, unit='s')}")
    print("\n\n".join(charts))
    if "ONES" in results and len(results) > 1:
        ones = results["ONES"]
        baselines = {name: r for name, r in results.items() if name != "ONES"}
        print()
        print("ONES improvement over baselines (average JCT):")
        for name, baseline in baselines.items():
            print(f"  vs {name:10s}: {100 * improvement_over(ones, baseline):5.1f}%")
        print()
        print("Wilcoxon tests (Table 4):")
        table = significance_table(ones, list(baselines.values()))
        print(format_table([r.as_row() for r in table.values()]))
    if args.csv:
        print(f"per-job metrics written to {export_comparison_csv(sweep, args.csv)}")
    if args.json:
        print(f"summary written to {export_comparison_json(sweep, args.json)}")
    if args.report:
        from repro.experiments.report import write_comparison_report

        print(f"markdown report written to {write_comparison_report(sweep, args.report)}")
    _print_recovery_summary(sweep)
    if args.profile:
        _print_profile_summary(sweep)
    if args.output_dir:
        _persist_sweep(sweep, args.output_dir)
    return 0


def cmd_sweep(args) -> int:
    spec = _experiment_spec(args, capacities=args.capacities, seeds=args.seeds)
    runner = _make_runner(args)
    sweep = _run_grid(runner, spec, args.resume)
    print(f"[runner] {runner.stats.describe()} ({runner.backend.name} backend)")
    if sweep.dead_runs():
        if args.output_dir:
            _persist_sweep(sweep, args.output_dir)
        return _report_failed_cells(sweep)
    capacities = sorted(spec.capacities)
    averages = sweep.mean_metric_table("jct")
    series: Dict[str, List[float]] = {
        name: [round(by_cap[c], 1) for c in capacities] for name, by_cap in averages.items()
    }
    print("Average JCT (s) vs cluster capacity (Fig. 17)")
    print(ascii_series(capacities, series, x_label="# GPUs"))
    if len(spec.option_axis) > 1:
        # A --partition-sizes grid: break the hierarchical scheduler's
        # numbers out per shard size (the table above averages over them).
        rows = []
        for run in sweep.runs:
            size = run.spec.scheduler_options.get("partition_size")
            if run.spec.scheduler != "ONES-hier" or size is None:
                continue
            rows.append({
                "partition_size": int(size),
                "gpus": run.spec.num_gpus,
                "seed": run.spec.seed,
                "avg_jct": round(run.average_jct, 1),
            })
        if rows:
            print()
            print("ONES-hier average JCT per partition size")
            print(format_table(sorted(rows, key=lambda r: (r["partition_size"], r["gpus"], r["seed"]))))
    if "ONES" in spec.schedulers:
        relative = sweep.relative_to("ONES", "jct")
        rel_series = {
            name: [round(by_cap[c], 2) for c in capacities]
            for name, by_cap in relative.items()
        }
        print()
        print("Relative JCT, ONES = 1.0 (Fig. 18)")
        print(ascii_series(capacities, rel_series, x_label="# GPUs"))
    if args.json:
        if (len(spec.seeds) == 1 and len(spec.traces) == 1 and len(spec.faults) == 1
                and len(spec.option_axis) == 1):
            print(f"sweep written to {export_sweep_json(sweep, args.json)}")
        else:
            args.json.write_text(sweep.to_json() + "\n")
            print(f"sweep artifact written to {args.json}")
    _print_recovery_summary(sweep)
    if args.profile:
        _print_profile_summary(sweep)
    if args.output_dir:
        _persist_sweep(sweep, args.output_dir)
    return 0


def _persist_sweep(sweep, output_dir: Path) -> None:
    """Write the sweep artifact + Markdown report into ``output_dir``."""
    from repro.experiments.report import write_sweep_report

    output_dir.mkdir(parents=True, exist_ok=True)
    artifact_path = sweep.save(output_dir / f"sweep-{sweep.spec.sweep_key()}.json")
    report_path = write_sweep_report(sweep, output_dir / "sweep_report.md")
    print(f"sweep artifact written to {artifact_path}")
    print(f"sweep report written to {report_path}")
    print(f"per-cell artifacts cached under {output_dir / 'cells'}")


def cmd_worker(args) -> int:
    from repro.experiments.worker import run_worker

    run_worker(
        str(args.queue_dir),
        worker_id=args.worker_id,
        lease_ttl=args.ttl,
        poll_interval=args.poll,
        exit_when_done=args.exit_when_done,
        max_cells=args.max_cells,
        hold_s=args.hold_s,
        verbose=not args.quiet,
        skew_margin=args.skew_margin,
        trace_out=str(args.trace_out) if args.trace_out else None,
    )
    return 0


def cmd_queue_status(args) -> int:
    import json as _json

    from repro.experiments.queue import WorkQueue

    queue_dir = Path(args.queue_dir)
    if not (queue_dir / "queue.json").exists():
        raise SystemExit(f"{queue_dir} is not a queue directory (no queue.json)")
    queue = WorkQueue(queue_dir)
    status = queue.status()
    if args.json:
        print(_json.dumps(queue.as_json(), indent=2, sort_keys=True))
        return 0 if not status.dead else 1
    print(f"Queue {queue.path} — {status.total} cells "
          f"(lease TTL {queue.lease_ttl:.1f}s, retries {queue.policy.max_retries})")
    print(format_table([
        {"state": name, "count": count} for name, count in status.as_dict().items()
    ]))
    if args.cells:
        rows = queue.cell_rows(since=args.since)
        if rows:
            print(format_table(rows))
        elif args.since is not None:
            print(f"(no cells with events in the last {args.since:.0f}s)")
    return 0 if not status.dead else 1


def _parse_tenant_flag(raw: str):
    """``NAME[:GPUS[:JOBS]]`` → :class:`~repro.service.schemas.TenantQuota`."""
    from repro.service.schemas import TenantQuota

    parts = raw.split(":")
    if len(parts) > 3 or not parts[0]:
        raise SystemExit(f"bad --tenant {raw!r}: expected NAME[:GPUS[:JOBS]]")
    kwargs = {"tenant": parts[0]}
    if len(parts) > 1 and parts[1]:
        kwargs["max_gpus"] = int(parts[1])
    if len(parts) > 2 and parts[2]:
        kwargs["max_active"] = int(parts[2])
    return TenantQuota(**kwargs)


def cmd_serve(args) -> int:
    from repro.experiments.registry import resolve as _resolve
    from repro.service.http import DEFAULT_PORT, run_server
    from repro.service.schemas import ServiceConfig

    config = ServiceConfig(
        num_gpus=args.gpus,
        scheduler=_resolve(args.scheduler).name,
        seed=args.seed,
        mode=args.mode,
        time_scale=args.time_scale,
        max_time=args.max_time,
        tenants=tuple(_parse_tenant_flag(raw) for raw in (args.tenant or [])),
    )
    port = args.port if args.port is not None else DEFAULT_PORT
    if args.trace_out:
        _install_cli_tracer()
    try:
        return run_server(config, host=args.host, port=port)
    finally:
        if args.trace_out:
            _export_cli_trace(args.trace_out)


def cmd_submit(args) -> int:
    import json as _json

    from repro.service.http import DEFAULT_PORT, ServiceClient
    from repro.service.schemas import JobSubmission
    from repro.workload.arrivals import ArrivalConfig

    port = args.port if args.port is not None else DEFAULT_PORT
    base = dict(
        tenant=args.tenant,
        job_type=args.job_type,
        workload=args.workload,
        replicas=args.replicas,
        gpus_per_replica=args.gpus_per_replica,
        name=args.name,
    )
    if args.count < 1:
        raise SystemExit("--count must be >= 1")
    with ServiceClient(args.host, port) as client:
        if args.count == 1:
            submissions = [JobSubmission(arrival_time=args.at, **base)]
        else:
            offsets = ArrivalConfig(
                profile=args.arrival_profile,
                rate=1.0 / args.arrival_interval,
                seed=args.arrival_seed,
            ).generate(args.count)
            # Anchor the stream at --at, or at the service's current
            # virtual time so the arrival profile spreads out either way.
            start = args.at
            if start is None:
                start = float(client.status()["virtual_time"])
            submissions = [
                JobSubmission(
                    arrival_time=start + float(t),
                    **{**base, "name": f"{args.name or args.tenant}-{i:05d}"},
                )
                for i, t in enumerate(offsets)
            ]
        decisions = client.submit_batch(submissions)
    if args.json:
        for decision in decisions:
            print(_json.dumps(decision, sort_keys=True))
    else:
        print(format_table([
            {
                "job": d["job_id"] or "-",
                "status": d["status"],
                "gpus": len(d["gpu_ids"]),
                "t": round(d["virtual_time"], 1),
                "latency_ms": round(d["decision_latency_ms"], 2),
                "reason": d["reason"][:48],
            }
            for d in decisions
        ]))
    rejected = sum(1 for d in decisions if d["status"] == "rejected")
    return 0 if rejected == 0 else 1


def cmd_service_status(args) -> int:
    import json as _json

    from repro.service.http import DEFAULT_PORT, ServiceClient

    port = args.port if args.port is not None else DEFAULT_PORT
    with ServiceClient(args.host, port) as client:
        status = client.status()
        metrics = client.metrics() if args.metrics else None
        summary = client.drain() if args.drain else None
    if args.json:
        payload = {"status": status}
        if metrics is not None:
            payload["metrics"] = metrics
        if summary is not None:
            payload["result"] = summary
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"Service: {status['scheduler']} on {status['num_gpus']} GPUs "
          f"({status['mode']} time), virtual t={status['virtual_time']:.1f}s, "
          f"uptime {status['wall_uptime_s']:.1f}s")
    print(f"Submissions: {status['submissions']}  jobs: {status['jobs_total']} "
          f"({status['jobs_completed']} completed, queue depth "
          f"{status['queue_depth']}, {status['gpus_busy']} GPUs busy)")
    if status["tenants"]:
        print(format_table([
            {
                "tenant": name,
                "submitted": row["submitted"],
                "placed": row["placed"],
                "queued": row["queued"],
                "rejected": row["rejected"],
                "completed": row["completed"],
                "active": row["active_jobs"],
                "gpus_out": row["outstanding_gpus"],
                "p99_ms": round(row["decision_latency"]["p99_ms"], 2),
            }
            for name, row in status["tenants"].items()
        ]))
    if metrics is not None:
        overall = metrics["decision_latency"]
        print(f"Decision latency: p50 {overall['p50_ms']:.2f} ms, "
              f"p99 {overall['p99_ms']:.2f} ms over {int(overall['count'])} decisions "
              f"({metrics['submissions_per_second']:.1f} submissions/s)")
        scheduler_metrics = metrics.get("scheduler") or {}
        if scheduler_metrics:
            print("Scheduler counters (from the metrics registry):")
            print(format_table([
                {"metric": name, "value": value}
                for name, value in sorted(scheduler_metrics.items())
            ]))
    if summary is not None:
        print(f"Drained: {summary['completed_jobs']} completed / "
              f"{summary['incomplete_jobs']} incomplete, avg JCT "
              f"{summary['average_jct']:.1f}s, makespan {summary['makespan']:.1f}s")
    return 0


def cmd_schedulers(args) -> int:
    rows = capabilities_table()
    if args.paper_only:
        wanted = set(paper_schedulers())
        rows = [row for row in rows if row["Scheduler"] in wanted]
    print("Registered schedulers (Table 3 capabilities):")
    print(format_table(rows))
    return 0


def cmd_fault_profiles(args) -> int:
    print("Registered fault profiles (use with `compare`/`sweep --faults NAME`):")
    print(format_table(profile_table()))
    return 0


def cmd_figures(args) -> int:
    from repro.experiments import figures

    wanted = args.which

    if wanted in ("fig2", "all"):
        data = figures.figure2_throughput_scaling()
        print("Figure 2: throughput vs workers (images/s)")
        print(ascii_series(
            [int(w) for w in data["workers"]],
            {"fixed": [round(v) for v in data["fixed_batch"]],
             "elastic": [round(v) for v in data["elastic_batch"]]},
            x_label="# workers",
        ))
        print()
    if wanted in ("fig3", "all"):
        data = figures.figure3_convergence_vs_gpus(epochs=120)
        checkpoints = [29, 59, 119]
        print("Figure 3: accuracy vs epochs (fixed local batch 256)")
        print(ascii_series(
            [c + 1 for c in checkpoints],
            {k: [round(float(data[k][c]), 3) for c in checkpoints]
             for k in ("1_gpus", "2_gpus", "4_gpus", "8_gpus")},
            x_label="epoch",
        ))
        print()
    if wanted in ("fig13", "all"):
        data = figures.figure13_abrupt_scaling()
        switch = int(data["switch_epoch"][0])
        print(f"Figure 13: abrupt 256->4096 scaling at epoch {switch}: "
              f"loss {data['scaled_batch'][switch - 1]:.2f} -> {data['scaled_batch'][switch]:.2f}")
        print()
    if wanted in ("fig14", "all"):
        data = figures.figure14_gradual_scaling()
        print(f"Figure 14: gradual scaling keeps the loss monotone "
              f"(largest epoch-to-epoch increase: "
              f"{max(float(b - a) for a, b in zip(data['loss'], data['loss'][1:])):.4f})")
        print()
    if wanted in ("fig16", "all"):
        table = figures.figure16_overheads()
        print("Figure 16: re-configuration overhead (seconds)")
        print(format_table([
            {"model": name, "elastic": round(row["elastic"], 2),
             "checkpoint": round(row["checkpoint"], 2)}
            for name, row in table.items()
        ]))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by the console script and ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "trace": cmd_trace,
        "run": cmd_run,
        "compare": cmd_compare,
        "sweep": cmd_sweep,
        "worker": cmd_worker,
        "queue-status": cmd_queue_status,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "service-status": cmd_service_status,
        "schedulers": cmd_schedulers,
        "fault-profiles": cmd_fault_profiles,
        "figures": cmd_figures,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

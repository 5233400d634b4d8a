"""The repository benchmark: end-to-end metrics plus a traced per-layer table.

Usage::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload the command repeats the workload, each time in a fresh
interpreter with BLAS pinned to one thread, until ``--seconds`` are used,
and reports the median of every end-to-end metric over those untraced
repetitions.  Times are in reference seconds (see ``rep.py``).  With ``--trace 1`` it then makes one traced repetition and
prints the per-layer table built from its spans.  Every repetition's outputs are checked; a
failed check makes the command exit non-zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
``perfbench/README.md`` describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib-only at import time)

#: One repetition may not take longer than this (the whole run must end
#: within three minutes).
REP_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """A repetition could not run at all (no result is printed)."""


def metric_table(key: str) -> List[Tuple[str, str]]:
    """(name, unit) of the ``end_to_end`` or ``per_layer`` metrics of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in spec[key]]


def repetition(
    name: str,
    seed: int,
    scale: float,
    trace_out: Optional[Path] = None,
) -> dict:
    """Run ``rep.py`` once in a fresh interpreter and return its report."""
    # Fixed string hashing keeps set/dict layouts, and so timings, alike
    # across repetitions.  rep.py pins the BLAS threads itself.
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable,
        str(HERE / "rep.py"),
        "--workload", name,
        "--seed", str(seed),
        "--scale", repr(scale),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} seed {seed}: repetition timed out after {exc.timeout}s")
    if done.returncode != 0:
        raise BenchError(
            f"{name} seed {seed}: repetition exited {done.returncode}\n{done.stderr[-4000:]}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{name} seed {seed}: repetition printed nothing")
    return json.loads(lines[-1])


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over ``src/**/*.py``: names the program even without git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(
    name: str, seed: int, seconds: float, scale: float, traced: bool, out_dir: Path
) -> dict:
    """Untraced repetitions for ``seconds``, then optionally one traced one."""
    reps: List[dict] = []
    begin = time.perf_counter()
    while True:
        reps.append(repetition(name, seed, scale))
        elapsed = time.perf_counter() - begin
        # Stop when one more repetition of the average length would overrun.
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    traced_rep = None
    if traced:
        traced_rep = repetition(
            name, seed, scale, trace_out=out_dir / f"{name}-seed{seed}-spans.jsonl"
        )

    first = reps[0]
    e2e = {
        metric: statistics.median(rep[metric] for rep in reps)
        for metric in ("setup_s", "wall_s", "decision_p50_ms", "decision_p99_ms", "peak_rss_mb")
    }
    # Identical in every repetition (checked below).
    e2e.update({metric: first[metric] for metric in ("avg_jct_s", "makespan_s", "completed_frac")})

    everyone = reps + ([traced_rep] if traced_rep else [])
    failures: List[str] = []
    failed = 0
    for index, rep in enumerate(everyone, start=1):
        problems = [f"rep {index}: {text}" for text in rep["checks_failed"]]
        for key in ("avg_jct_s", "makespan_s", "events", "trajectory", "inputs_sha256"):
            if rep[key] != first[key]:
                problems.append(f"rep {index}: {key} {rep[key]} differs from rep 1 {first[key]}")
        if problems:
            failures.extend(problems)
            failed += rep["decisions"]

    layers = None
    if traced_rep is not None:
        layers = dict(traced_rep["layers"])
        layers["bench.tracing_overhead"] = traced_rep["wall_s"] / e2e["wall_s"] - 1.0

    return {
        "name": name,
        "reps": reps,
        "traced": traced_rep,
        "e2e": e2e,
        "layers": layers,
        "failures": failures,
        "attempted": sum(rep["decisions"] for rep in everyone),
        "failed": failed,
    }


def fingerprint(summary: dict, seed: int) -> dict:
    env = dict(summary["reps"][0]["environment"])
    env.update(seed=seed, git_commit=git_commit(), source_sha256=source_digest())
    return env


def print_report(summary: dict, seed: int, out) -> None:
    workload = workloads.WORKLOADS[summary["name"]]
    reps, traced = summary["reps"], summary["traced"]
    first = reps[0]
    print(
        f"== {workload.name} | {workload.loop} | seed {seed} | {len(reps)} untraced "
        f"repetition(s){' + 1 traced' if traced else ''}, fresh interpreter each, "
        f"BLAS pinned to 1 thread",
        file=out,
    )
    print(f"   {workload.why}", file=out)
    print("fingerprint " + json.dumps(fingerprint(summary, seed)), file=out)
    print(f"inputs sha256 {first['inputs_sha256']}", file=out)
    for index, rep in enumerate(reps + ([traced] if traced else []), start=1):
        label = "traced" if rep["traced"] else f"rep {index}"
        print(
            f"{label:>6}  setup_s={rep['setup_s']:.4f}  wall_s={rep['wall_s']:.4f}  "
            f"p50={rep['decision_p50_ms']:.4f}  p99={rep['decision_p99_ms']:.4f}  "
            f"speed={rep['speed']:.3f}  decisions={rep['decisions']}  events={rep['events']}  "
            f"trajectory={rep['trajectory']}",
            file=out,
        )
    n = len(reps)
    samples = {
        "setup_s": f"{n} reps",
        "wall_s": f"{n} reps",
        "decision_p50_ms": f"{n} reps x {first['decisions']} decisions",
        "decision_p99_ms": f"{n} reps x {first['decisions']} decisions",
        "avg_jct_s": f"{round(first['completed_frac'] * first['jobs_sent'])} completed jobs",
        "makespan_s": "1 per rep, identical in every rep",
        "completed_frac": f"{first['jobs_sent']} jobs sent",
        "peak_rss_mb": f"{n} reps",
    }
    print(f"end-to-end (median over {n} untraced repetitions; times in reference seconds)", file=out)
    for metric, unit in metric_table("end_to_end"):
        value = summary["e2e"][metric]
        print(f"  {metric:<18} {value:>14.4f} {unit:<6} n={samples.get(metric, '')}", file=out)
    if summary["layers"] is not None:
        print("per-layer (traced repetition; *_s is self time in reference seconds)", file=out)
        for metric, unit in metric_table("per_layer"):
            value = summary["layers"][metric]
            text = f"{value:>14.0f}" if unit == "count" else f"{value:>14.6f}"
            print(f"  {metric:<26} {text} {unit}", file=out)
        if traced.get("unwrapped"):
            print(f"  not wrapped (missing in the program): {traced['unwrapped']}", file=out)
    if summary["failures"]:
        print("checks FAILED:", file=out)
        for text in summary["failures"]:
            print(f"  {text}", file=out)
    else:
        print("checks passed: accounting, busy GPU-seconds, identical trajectories", file=out)


def result_metrics(summaries: List[dict], traced: bool) -> Dict[str, dict]:
    """One workload: the contract's metric set.  Several: both, prefixed."""
    if len(summaries) == 1:
        tables = [("layers", "per_layer")] if traced else [("e2e", "end_to_end")]
    else:
        tables = [("e2e", "end_to_end")] + ([("layers", "per_layer")] if traced else [])
    metrics: Dict[str, dict] = {}
    for summary in summaries:
        prefix = f"{summary['name']}." if len(summaries) > 1 else ""
        for field, key in tables:
            for name, unit in metric_table(key):
                metrics[prefix + name] = {"value": summary[field][name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every workload's job count (the self-tests use a short run)",
    )
    parser.add_argument("--out", type=Path, default=HERE / "out", help="span files go here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's source is missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summary = measure(name, args.seed, args.seconds, args.scale, bool(args.trace), args.out)
            print_report(summary, args.seed, sys.stdout)
            summaries.append(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = not any(summary["failures"] for summary in summaries)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(summary["attempted"] for summary in summaries),
                "failed": sum(summary["failed"] for summary in summaries),
                "metrics": result_metrics(summaries, bool(args.trace)),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Export simulation results to CSV / JSON.

The benchmark harness prints human-readable reports; downstream analysis
(plotting in a notebook, aggregating across seeds) is easier from
machine-readable files.  These helpers export per-job metrics, comparison
summaries and scalability sweeps using only the standard library.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.analysis.metrics import METRIC_KEYS, improvement_over, mean_metric, relative_jct
from repro.sim.simulator import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import only needed for type checkers
    from repro.experiments.artifacts import SweepArtifact

PathLike = Union[str, Path]


def result_to_records(result: SimulationResult) -> list[dict]:
    """Per-job metric records (one dict per completed job)."""
    records = []
    for job_id in sorted(result.completed):
        metrics = result.completed[job_id]
        job = result.jobs.get(job_id)
        record = {
            "scheduler": result.scheduler_name,
            "num_gpus": result.num_gpus,
            "job_id": job_id,
            **{key: float(value) for key, value in metrics.items()},
        }
        if job is not None:
            record.update(
                {
                    "task": job.spec.task,
                    "dataset": job.spec.dataset,
                    "model": job.spec.model.name,
                    "requested_gpus": job.spec.requested_gpus,
                    "submitted_batch": job.spec.base_batch,
                    "arrival_time": job.arrival_time,
                    "max_batch": max((b for _, b in job.batch_history), default=0),
                    "max_gpus": max((r.num_gpus for r in job.epoch_records), default=0),
                }
            )
        records.append(record)
    return records


def _write_records_csv(records: list[dict], path: PathLike) -> Path:
    """Write metric records to a CSV file (one column per key); returns the path."""
    path = Path(path)
    if not records:
        path.write_text("")
        return path
    fieldnames = sorted({key for record in records for key in record})
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            writer.writerow(record)
    return path


def export_result_csv(result: SimulationResult, path: PathLike) -> Path:
    """Write one run's per-job metrics to a CSV file; returns the path."""
    return _write_records_csv(result_to_records(result), path)


def export_result_json(result: SimulationResult, path: PathLike) -> Path:
    """Write one run's summary + per-job metrics as JSON; returns the path."""
    payload = {
        "summary": result.summary(),
        "jobs": result_to_records(result),
        "incomplete": list(result.incomplete),
    }
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path


def export_comparison_csv(sweep: "SweepArtifact", path: PathLike) -> Path:
    """Write a comparison's per-job metrics (all schedulers) to a CSV file.

    A comparison is a one-capacity sweep; like every comparison writer,
    this reads the zero-fault slice of its first capacity, seed and trace.
    """
    records = [
        record
        for result in sweep.results_for().values()
        for record in result_to_records(result)
    ]
    return _write_records_csv(records, path)


def export_comparison_json(sweep: "SweepArtifact", path: PathLike) -> Path:
    """Write a comparison's summaries, averages and improvements as JSON."""
    results = sweep.results_for()
    payload = {
        "num_gpus": sweep.spec.capacities[0],
        "num_jobs": sweep.spec.traces[0].num_jobs,
        "averages": {
            metric: {name: mean_metric(result, metric) for name, result in results.items()}
            for metric in METRIC_KEYS
        },
        "summaries": {name: result.summary() for name, result in results.items()},
    }
    if "ONES" in results:
        payload["improvements_over_ONES_reference"] = {
            name: improvement_over(results["ONES"], result)
            for name, result in results.items()
            if name != "ONES"
        }
        payload["relative_jct"] = relative_jct(results, "ONES")
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path


def export_sweep_json(sweep: "SweepArtifact", path: PathLike) -> Path:
    """Write a scalability sweep (Fig. 17/18 data) as JSON.

    One entry per capacity, from the zero-fault slice of the sweep's
    first seed and trace.
    """
    payload = {}
    for capacity in sorted(sweep.spec.capacities):
        results = sweep.results_for(capacity)
        entry = {
            "averages_jct": {name: mean_metric(r, "jct") for name, r in results.items()},
            "averages_queuing": {
                name: mean_metric(r, "queuing_time") for name, r in results.items()
            },
        }
        if "ONES" in results:
            entry["relative_jct"] = relative_jct(results, "ONES")
        payload[str(int(capacity))] = entry
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2))
    return path

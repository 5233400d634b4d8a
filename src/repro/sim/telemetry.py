"""Simulation telemetry: utilisation timelines and per-job Gantt data.

The headline metrics (JCT / execution / queuing time) compress a whole
run into three numbers.  For debugging scheduler behaviour — and for the
cluster-timeline example — it is useful to reconstruct *how* the cluster
was used over time: how many GPUs were busy at each instant, which jobs
held which GPUs, and how each job's batch size evolved.

All of this can be derived after the fact from the :class:`Job` records
kept by the simulator (run intervals, batch history, epoch records), so
telemetry costs nothing during the simulation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.jobs.job import Job
from repro.sim.simulator import SimulationResult
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class GanttSegment:
    """One contiguous stretch of a job holding GPUs."""

    job_id: str
    start: float
    end: float
    num_gpus: int

    @property
    def duration(self) -> float:
        """Length of the segment in seconds."""
        return max(0.0, self.end - self.start)


def job_gantt(jobs: Mapping[str, Job]) -> List[GanttSegment]:
    """Flatten every job's run intervals into Gantt segments (time-ordered)."""
    segments: List[GanttSegment] = []
    for job_id, job in jobs.items():
        for interval in job.run_intervals:
            end = interval.end
            if end is None:
                # Open interval (job still running when the simulation
                # stopped); close it at the last known timestamp.
                end = job.completion_time if job.completion_time is not None else interval.start
            segments.append(
                GanttSegment(
                    job_id=job_id,
                    start=interval.start,
                    end=float(end),
                    num_gpus=interval.num_gpus,
                )
            )
    segments.sort(key=lambda s: (s.start, s.job_id))
    return segments


def busy_gpu_timeline(
    result: SimulationResult, num_points: int = 200
) -> Tuple[np.ndarray, np.ndarray]:
    """Sampled number of busy GPUs over the run's makespan.

    Returns ``(times, busy_gpus)`` where ``busy_gpus[i]`` is the number of
    GPUs held by any job at ``times[i]``.
    """
    check_positive_int(num_points, "num_points")
    segments = job_gantt(result.jobs)
    if not segments:
        return np.zeros(1), np.zeros(1)
    start = min(s.start for s in segments)
    end = max(s.end for s in segments)
    if end <= start:
        end = start + 1.0
    times = np.linspace(start, end, num_points)
    busy = np.zeros(num_points)
    for segment in segments:
        mask = (times >= segment.start) & (times < segment.end)
        busy[mask] += segment.num_gpus
    return times, busy


def utilization_timeline(
    result: SimulationResult, num_points: int = 200
) -> Tuple[np.ndarray, np.ndarray]:
    """Cluster utilisation (busy fraction of GPUs) over time."""
    times, busy = busy_gpu_timeline(result, num_points)
    return times, busy / max(result.num_gpus, 1)


def batch_size_timeline(job: Job) -> Tuple[np.ndarray, np.ndarray]:
    """Step-wise global batch size of one job over time."""
    if not job.batch_history:
        return np.zeros(0), np.zeros(0)
    times = np.asarray([t for t, _ in job.batch_history], dtype=float)
    batches = np.asarray([b for _, b in job.batch_history], dtype=float)
    return times, batches


def gpu_count_timeline(job: Job) -> Tuple[np.ndarray, np.ndarray]:
    """Step-wise GPU count of one job over time (from its run intervals)."""
    times: List[float] = []
    counts: List[float] = []
    for interval in job.run_intervals:
        times.append(interval.start)
        counts.append(float(interval.num_gpus))
        if interval.end is not None:
            times.append(interval.end)
            counts.append(0.0)
    return np.asarray(times), np.asarray(counts)


#: The keys of :meth:`RunTelemetry.as_dict`, in report-column order.
#: Serialized artifacts store them sorted, so reports read them in
#: this order instead of the dict's.
TELEMETRY_COLUMNS = (
    "scheduler",
    "num_gpus",
    "makespan",
    "mean_utilization",
    "peak_utilization",
    "reconfigurations",
    "mean_gpus_per_job",
    "mean_peak_batch_ratio",
)


@dataclass(frozen=True)
class RunTelemetry:
    """Aggregated per-run telemetry used by reports and examples."""

    scheduler: str
    num_gpus: int
    makespan: float
    mean_utilization: float
    peak_utilization: float
    total_reconfigurations: int
    mean_gpus_per_job: float
    mean_peak_batch_ratio: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for tabular reports, keyed by :data:`TELEMETRY_COLUMNS`."""
        values = (
            self.scheduler,
            self.num_gpus,
            self.makespan,
            self.mean_utilization,
            self.peak_utilization,
            self.total_reconfigurations,
            self.mean_gpus_per_job,
            self.mean_peak_batch_ratio,
        )
        return dict(zip(TELEMETRY_COLUMNS, values))


def summarize_run(result: SimulationResult, num_points: int = 400) -> RunTelemetry:
    """Build a :class:`RunTelemetry` summary from a simulation result."""
    times, utilization = utilization_timeline(result, num_points)
    per_job_gpus: List[float] = []
    batch_ratios: List[float] = []
    for job in result.jobs.values():
        if job.epoch_records:
            per_job_gpus.append(float(np.mean([r.num_gpus for r in job.epoch_records])))
            peak = max(r.global_batch for r in job.epoch_records)
            batch_ratios.append(peak / max(job.spec.base_batch, 1))
    return RunTelemetry(
        scheduler=result.scheduler_name,
        num_gpus=result.num_gpus,
        makespan=result.makespan,
        mean_utilization=float(np.mean(utilization)) if utilization.size else 0.0,
        peak_utilization=float(np.max(utilization)) if utilization.size else 0.0,
        total_reconfigurations=result.num_reconfigurations,
        mean_gpus_per_job=float(np.mean(per_job_gpus)) if per_job_gpus else 0.0,
        mean_peak_batch_ratio=float(np.mean(batch_ratios)) if batch_ratios else 0.0,
    )


def ascii_utilization_sparkline(
    result: SimulationResult, width: int = 60, height_levels: int = 8
) -> str:
    """A one-line sparkline of cluster utilisation over time."""
    check_positive_int(width, "width")
    check_positive_int(height_levels, "height_levels")
    _, utilization = utilization_timeline(result, num_points=width)
    blocks = " ▁▂▃▄▅▆▇█"
    levels = min(height_levels, len(blocks) - 1)
    chars = []
    for value in utilization:
        idx = int(round(min(max(value, 0.0), 1.0) * levels))
        chars.append(blocks[idx])
    return "".join(chars)

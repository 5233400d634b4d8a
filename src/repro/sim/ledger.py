"""Vectorized per-job progress state: the simulator's hot-path ledger.

Historically ``ClusterSimulator._advance_time`` walked *every* job in a
Python loop at *every* event — three dict lookups, a ``max``, and a
``Job.advance`` call (with a ``math.exp`` inside) per job per event.  On
long traces that loop, not the scheduler, became the simulation floor.

The :class:`ProgressLedger` replaces the per-job dicts
(``_job_throughput`` / ``_progress_resume`` / ``_last_progress``) and the
progress-bearing ``Job`` attributes with dense NumPy arrays keyed by a
job-index map, so advancing the clock is a handful of array expressions
over the *running* jobs only:

``start = max(last_progress, resume)``, ``delta = rate * (t - start)``,
then vectorized equivalents of ``Job.advance`` (samples, effective
epochs, loss-spike decay, Welford throughput profile).

Bit-exactness contract
----------------------
Every array expression performs the *same IEEE-754 double operations in
the same order* as the scalar code it replaced (element-wise ``+ - * /``
on float64 are correctly rounded, so NumPy and pure Python agree
bit-for-bit).  The one transcendental — the loss-spike decay
``exp(-fraction / recovery)`` — is still evaluated with ``math.exp`` per
job, because NumPy's SIMD ``np.exp`` is not guaranteed bit-identical to
libm; spikes are zero for almost every job at almost every event, so the
scalar fallback costs nothing.  The golden-trace and differential parity
suites pin this contract.

Lazy materialization
--------------------
Between events the arrays are authoritative for the progress state of
running jobs; the ``Job`` objects are stale.  ``materialize()`` writes
the arrays back into the ``Job`` attributes, and is called by the
simulator only when a handler (or a scheduler callback, via
``ClusterSimulator._state``) is about to *read* a job.  Conversely,
``pull()`` refreshes the arrays after a handler *mutates* a job
(epoch-boundary snapping, re-configuration).  A dirty mask keeps both
directions O(changed jobs).

``materialize_all()`` — the write-back in front of every scheduler
callback — gathers the dirty slots of each array at once and converts
them with ``ndarray.tolist()``, one call per array instead of seven
NumPy-scalar reads per job.  ``tolist()`` yields exactly the Python
``float`` / ``int`` that ``float(arr[slot])`` / ``int(arr[slot])`` do
(the same IEEE-754 double, the same integer), so the ``Job`` objects
receive bit-identical values of the same types as through the per-slot
``materialize()`` path, which single-job reads still use.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.jobs.job import Job

#: Initial slot capacity; the arrays double when a trace outgrows them.
_INITIAL_CAPACITY = 64


class ProgressLedger:
    """Dense per-job runtime state keyed by a job-index map."""

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(1, int(capacity))
        self._index: Dict[str, int] = {}
        self._jobs: List[Optional[Job]] = []
        self._size = 0
        # simulator-owned runtime state (previously per-job dicts)
        self.rate = np.zeros(capacity)
        self.resume = np.zeros(capacity)
        self.last_progress = np.zeros(capacity)
        self.running = np.zeros(capacity, dtype=bool)
        # mirrored Job progress state (vectorized Job.advance)
        self.samples = np.zeros(capacity)
        self.effective_epochs = np.zeros(capacity)
        self.spike = np.zeros(capacity)
        self.gain = np.zeros(capacity)
        self.recovery = np.ones(capacity)
        self.dataset = np.ones(capacity)
        self.tp_count = np.zeros(capacity, dtype=np.int64)
        self.tp_mean = np.zeros(capacity)
        self.tp_m2 = np.zeros(capacity)
        self._dirty = np.zeros(capacity, dtype=bool)

    # -- slot management ----------------------------------------------------------------

    def _grow(self) -> None:
        for name in (
            "rate", "resume", "last_progress", "running", "samples",
            "effective_epochs", "spike", "gain", "recovery", "dataset",
            "tp_count", "tp_mean", "tp_m2", "_dirty",
        ):
            old = getattr(self, name)
            new = np.zeros(2 * old.shape[0], dtype=old.dtype)
            if name in ("recovery", "dataset"):
                new[old.shape[0]:] = 1.0
            new[: old.shape[0]] = old
            setattr(self, name, new)

    def register(self, job: Job, now: float) -> int:
        """Add a job to the ledger at its arrival; returns its slot index."""
        if job.job_id in self._index:
            raise ValueError(f"job {job.job_id!r} already registered")
        if self._size == self.rate.shape[0]:
            self._grow()
        slot = self._size
        self._size += 1
        self._index[job.job_id] = slot
        self._jobs.append(job)
        self.last_progress[slot] = now
        self.recovery[slot] = job.spec.convergence.spike_recovery_epochs
        self.dataset[slot] = float(job.dataset_size)
        self.pull(job)
        return slot

    # -- runtime state (mirrors the old simulator dicts) --------------------------------

    def rate_of(self, job_id: str) -> float:
        """Current progress rate (samples/s); 0.0 when not running."""
        return float(self.rate[self._index[job_id]])

    def resume_of(self, job_id: str) -> float:
        """Time at which the job resumes making progress (overhead end)."""
        return float(self.resume[self._index[job_id]])

    def set_rate(self, job_id: str, rate: float) -> None:
        """Set the job's progress rate (deployed-configuration throughput)."""
        self.rate[self._index[job_id]] = rate

    def set_resume(self, job_id: str, resume_at: float, now: float) -> None:
        """Charge a re-configuration: no progress until ``resume_at``."""
        slot = self._index[job_id]
        self.resume[slot] = resume_at
        self.last_progress[slot] = now

    def clear_runtime(self, job_id: str) -> None:
        """Drop rate/resume state (completion or preemption)."""
        slot = self._index[job_id]
        self.rate[slot] = 0.0
        self.resume[slot] = 0.0

    # -- synchronisation with the Job objects -------------------------------------------

    def pull(self, job: Job) -> None:
        """Refresh the arrays from a job that was mutated outside the ledger."""
        slot = self._index[job.job_id]
        self.running[slot] = job.is_running
        self.samples[slot] = job.samples_processed
        self.effective_epochs[slot] = job.effective_epochs
        self.spike[slot] = job._loss_spike
        profile = job.throughput_profile
        self.tp_count[slot] = profile.count
        self.tp_mean[slot] = profile.mean
        self.tp_m2[slot] = profile._m2
        if job.is_running:
            batch = max(1, job.global_batch)
            self.gain[slot] = job.spec.convergence.epoch_progress(batch, job.lr_scaled)
        self._dirty[slot] = False

    def materialize(self, job_id: str) -> None:
        """Write one job's array state back into its ``Job`` object."""
        slot = self._index[job_id]
        if self._dirty[slot]:
            self._write_back(slot)

    def materialize_all(self) -> None:
        """Write every dirty job's array state back into its ``Job`` (in bulk)."""
        dirty = np.flatnonzero(self._dirty[: self._size])
        if dirty.size == 0:
            return
        jobs = self._jobs
        for slot, samples, epochs, spike, count, mean, m2 in zip(
            dirty.tolist(),
            self.samples[dirty].tolist(),
            self.effective_epochs[dirty].tolist(),
            self.spike[dirty].tolist(),
            self.tp_count[dirty].tolist(),
            self.tp_mean[dirty].tolist(),
            self.tp_m2[dirty].tolist(),
        ):
            job = jobs[slot]
            job.samples_processed = samples
            job.effective_epochs = epochs
            job._loss_spike = spike
            profile = job.throughput_profile
            profile.count = count
            profile.mean = mean
            profile._m2 = m2
        self._dirty[dirty] = False

    def _write_back(self, slot: int) -> None:
        job = self._jobs[slot]
        job.samples_processed = float(self.samples[slot])
        job.effective_epochs = float(self.effective_epochs[slot])
        job._loss_spike = float(self.spike[slot])
        profile = job.throughput_profile
        profile.count = int(self.tp_count[slot])
        profile.mean = float(self.tp_mean[slot])
        profile._m2 = float(self.tp_m2[slot])
        self._dirty[slot] = False

    # -- the vectorized hot path --------------------------------------------------------

    def advance_to(self, to_time: float) -> None:
        """Advance every running job's progress to ``to_time``.

        Array-expression equivalent of the old per-job loop::

            start = max(last_progress[j], resume[j])
            duration = max(0.0, to_time - start)
            if duration > 0 and rate[j] > 0:
                job.advance(rate[j] * duration, duration)
            last_progress[j] = to_time
        """
        size = self._size
        if size == 0:
            return
        running = np.flatnonzero(self.running[:size])
        if running.size == 0:
            return
        start = np.maximum(self.last_progress[running], self.resume[running])
        duration = np.maximum(to_time - start, 0.0)
        active = (duration > 0.0) & (self.rate[running] > 0.0)
        self.last_progress[running] = to_time
        if not active.any():
            return
        idx = running[active]
        duration = duration[active]
        delta = self.rate[idx] * duration
        # Job.advance returns early on a zero delta (possible only when
        # rate * duration underflows); match it exactly.
        nonzero = delta > 0.0
        if not nonzero.all():
            idx, duration, delta = idx[nonzero], duration[nonzero], delta[nonzero]
            if idx.size == 0:
                return
        fraction = delta / self.dataset[idx]
        self.samples[idx] += delta
        self.effective_epochs[idx] += fraction * self.gain[idx]
        # Loss-spike decay: scalar math.exp per *non-zero* spike (rare) so
        # the result stays bit-identical to Job.advance; zero spikes stay
        # exactly zero under any decay factor.
        spiked = np.flatnonzero(self.spike[idx] != 0.0)
        for k in spiked:
            slot = int(idx[k])
            self.spike[slot] *= math.exp(-float(fraction[k]) / float(self.recovery[slot]))
        # Welford throughput profile (RunningMean.update, element-wise).
        value = delta / duration
        self.tp_count[idx] += 1
        d1 = value - self.tp_mean[idx]
        self.tp_mean[idx] += d1 / self.tp_count[idx]
        self.tp_m2[idx] += d1 * (value - self.tp_mean[idx])
        self._dirty[idx] = True

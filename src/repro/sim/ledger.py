"""Vectorized progress state of the running jobs: the simulator's hot-path ledger.

Historically ``ClusterSimulator._advance_time`` walked *every* job in a
Python loop at *every* event — three dict lookups, a ``max``, and a
``Job.advance`` call (with a ``math.exp`` inside) per job per event.  On
long traces that loop, not the scheduler, became the simulation floor.

The :class:`ProgressLedger` replaces the per-job dicts
(``_job_throughput`` / ``_progress_resume`` / ``_last_progress``) and the
progress-bearing ``Job`` attributes with dense NumPy arrays, so advancing
the clock is a handful of array expressions over the running jobs:

``start = max(last_progress, resume)``, ``delta = rate * (t - start)``,
then vectorized equivalents of ``Job.advance`` (samples, effective
epochs, loss-spike decay, the running mean of the throughput profile).

Running slots
-------------
A job holds a slot only while it runs.  The slots are packed into
``[0, n)``, ``n`` being the number of running jobs: :meth:`pull` of a
running job without a slot appends one at ``n``, and :meth:`pull` of a
job that stopped (preemption, eviction, completion) swap-removes its
slot, moving the last one into the hole.  :meth:`advance_to` and
:meth:`materialize_all` therefore work on ``[:n]`` slices, whatever the
length of the job history; ``advance_to`` gathers an index subset only
when some running job is still inside its re-configuration overhead
(makes no progress at this event).

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

Synchronisation with the ``Job`` objects
----------------------------------------
The arrays are authoritative for the progress state of running jobs;
their ``Job`` objects are stale between write-backs.  A job without a
slot is authoritative in its ``Job``.  :meth:`materialize` writes one
running job back, :meth:`materialize_all` every running job (a no-op
when the clock moved none since the last bulk write-back).  The
simulator materializes the event's job before a handler reads it, and
hands ``materialize_all`` to each scheduler snapshot, which runs it the
first time a callback asks for a job view (see
:class:`~repro.baselines.base.ClusterState`).  Conversely, :meth:`pull`
refreshes the arrays after a handler *mutates* a job (re-configuration,
preemption, eviction, completion) — the job must have been materialized
before the mutation — and :meth:`set_samples` writes the one value the
epoch-boundary snap changes.

``materialize_all`` converts each array slice with ``ndarray.tolist()``,
one call per array instead of five NumPy-scalar reads per job;
``tolist()`` yields exactly the Python ``float`` / ``int`` that
``float(arr[slot])`` / ``int(arr[slot])`` do, so the ``Job`` objects
receive bit-identical values of the same types as through the per-slot
``materialize`` path.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.jobs.job import Job

#: Initial slot capacity; the arrays double when more jobs run at once.
_INITIAL_CAPACITY = 64


class ProgressLedger:
    """Dense progress state of the running jobs, one packed slot each."""

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        capacity = max(1, int(capacity))
        self._index: Dict[str, int] = {}
        #: slot -> job; its length is the number of slots.
        self._jobs: List[Job] = []
        #: Time of the last :meth:`advance_to`: where a new slot starts.
        self._clock = 0.0
        #: Whether a slot advanced since the last :meth:`materialize_all`.
        self._unflushed = False
        # One row per float field, so growing and swap-removing a slot
        # are one array operation each.
        self._values = np.zeros((10, capacity))
        self.tp_count = np.zeros(capacity, dtype=np.int64)
        self._bind_rows()

    def _bind_rows(self) -> None:
        (
            # simulator-owned runtime state (previously per-job dicts)
            self.rate,
            self.resume,
            self.last_progress,
            # mirrored Job progress state (vectorized Job.advance)
            self.samples,
            self.effective_epochs,
            self.spike,
            self.gain,
            self.recovery,
            self.dataset,
            self.tp_mean,
        ) = self._values

    def __len__(self) -> int:
        """Number of slots, i.e. of running jobs."""
        return len(self._jobs)

    # -- slot management ----------------------------------------------------------------

    def _grow(self) -> None:
        capacity = 2 * self.tp_count.shape[0]
        values = np.zeros((self._values.shape[0], capacity))
        values[:, : self._values.shape[1]] = self._values
        count = np.zeros(capacity, dtype=np.int64)
        count[: self.tp_count.shape[0]] = self.tp_count
        self._values, self.tp_count = values, count
        self._bind_rows()

    def _acquire(self, job: Job) -> int:
        slot = len(self)
        if slot == self.tp_count.shape[0]:
            self._grow()
        self._index[job.job_id] = slot
        self._jobs.append(job)
        self.rate[slot] = 0.0
        self.resume[slot] = 0.0
        self.last_progress[slot] = self._clock
        self.recovery[slot] = job.spec.convergence.spike_recovery_epochs
        self.dataset[slot] = float(job.dataset_size)
        return slot

    def _release(self, job_id: str, slot: int) -> None:
        del self._index[job_id]
        moved = self._jobs.pop()
        last = len(self._jobs)
        if slot != last:
            self._jobs[slot] = moved
            self._index[moved.job_id] = slot
            self._values[:, slot] = self._values[:, last]
            self.tp_count[slot] = self.tp_count[last]

    # -- runtime state (mirrors the old simulator dicts) --------------------------------

    def rate_of(self, job_id: str) -> float:
        """Current progress rate (samples/s); 0.0 when not running."""
        slot = self._index.get(job_id)
        return 0.0 if slot is None else float(self.rate[slot])

    def resume_of(self, job_id: str) -> float:
        """Time at which the job resumes making progress; 0.0 when not running."""
        slot = self._index.get(job_id)
        return 0.0 if slot is None else float(self.resume[slot])

    def set_rate(self, job_id: str, rate: float) -> None:
        """Set a running job's progress rate (deployed-configuration throughput, ≥ 0)."""
        self.rate[self._index[job_id]] = rate

    def set_resume(self, job_id: str, resume_at: float, now: float) -> None:
        """Charge a re-configuration: no progress until ``resume_at``."""
        slot = self._index[job_id]
        self.resume[slot] = resume_at
        self.last_progress[slot] = now

    # -- synchronisation with the Job objects -------------------------------------------

    def pull(self, job: Job) -> None:
        """Refresh the arrays from a job that was mutated outside the ledger.

        A running job takes a slot if it holds none; a job that is not
        running gives its slot up.  The job is only read, so it must have
        been materialized before it was mutated.
        """
        slot = self._index.get(job.job_id)
        if not job.is_running:
            if slot is not None:
                self._release(job.job_id, slot)
            return
        if slot is None:
            slot = self._acquire(job)
        self.samples[slot] = job.samples_processed
        self.effective_epochs[slot] = job.effective_epochs
        self.spike[slot] = job._loss_spike
        profile = job.throughput_profile
        self.tp_count[slot] = profile.count
        self.tp_mean[slot] = profile.mean
        batch = max(1, job.global_batch)
        self.gain[slot] = job.spec.convergence.epoch_progress(batch, job.lr_scaled)

    def set_samples(self, job_id: str, samples: float) -> None:
        """Write a running job's snapped sample count (its ``Job`` holds it too)."""
        self.samples[self._index[job_id]] = samples

    def materialize(self, job_id: str) -> None:
        """Write one job's array state back into its ``Job`` (no-op when not running)."""
        slot = self._index.get(job_id)
        if slot is None:
            return
        job = self._jobs[slot]
        job.samples_processed = float(self.samples[slot])
        job.effective_epochs = float(self.effective_epochs[slot])
        job._loss_spike = float(self.spike[slot])
        profile = job.throughput_profile
        profile.count = int(self.tp_count[slot])
        profile.mean = float(self.tp_mean[slot])

    def materialize_all(self) -> None:
        """Write every running job's array state back into its ``Job`` (in bulk).

        A no-op unless :meth:`advance_to` moved a job since the last call.
        """
        if not self._unflushed:
            return
        self._unflushed = False
        n = len(self._jobs)
        for job, samples, epochs, spike, count, mean in zip(
            self._jobs,
            self.samples[:n].tolist(),
            self.effective_epochs[:n].tolist(),
            self.spike[:n].tolist(),
            self.tp_count[:n].tolist(),
            self.tp_mean[:n].tolist(),
        ):
            job.samples_processed = samples
            job.effective_epochs = epochs
            job._loss_spike = spike
            profile = job.throughput_profile
            profile.count = count
            profile.mean = mean

    # -- the vectorized hot path --------------------------------------------------------

    def advance_to(self, to_time: float) -> None:
        """Advance every running job's progress to ``to_time``.

        Array-expression equivalent of the old per-job loop::

            start = max(last_progress[j], resume[j])
            duration = max(0.0, to_time - start)
            if duration > 0 and rate[j] > 0:
                job.advance(rate[j] * duration, duration)
            last_progress[j] = to_time

        Rates are never negative, so ``rate * (to_time - start) > 0``
        selects exactly the jobs that loop advanced, and ``Job.advance``'s
        early return on a zero delta (a product that underflows) with them.
        """
        self._clock = to_time
        n = len(self._jobs)
        if n == 0:
            return
        last_progress = self.last_progress[:n]
        duration = to_time - np.maximum(last_progress, self.resume[:n])
        last_progress.fill(to_time)
        delta = self.rate[:n] * duration
        moving = delta > 0.0
        if moving.all():
            idx = slice(0, n)
        else:
            # Some job is inside its re-configuration overhead.
            idx = np.flatnonzero(moving)
            if idx.size == 0:
                return
            delta, duration = delta[idx], duration[idx]
        self._unflushed = True
        fraction = delta / self.dataset[idx]
        self.samples[idx] += delta
        self.effective_epochs[idx] += fraction * self.gain[idx]
        # Loss-spike decay: scalar math.exp per *non-zero* spike (rare) so
        # the result stays bit-identical to Job.advance; zero spikes stay
        # exactly zero under any decay factor.
        spike = self.spike[idx]
        if spike.any():
            recovery = self.recovery[idx]
            for k in np.flatnonzero(spike).tolist():
                spike[k] *= math.exp(-float(fraction[k]) / float(recovery[k]))
            self.spike[idx] = spike
        # Running mean of the throughput profile (RunningMean.update).
        value = delta / duration
        self.tp_count[idx] += 1
        mean = self.tp_mean[idx]
        self.tp_mean[idx] = mean + (value - mean) / self.tp_count[idx]

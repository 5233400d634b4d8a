"""Tests for the layered simulation engine: kernel guards, ledger, handlers.

Covers the guard paths the old monolithic simulator never had dedicated
tests for: the ``max_events`` cap, the time-goes-backwards
``RuntimeError``, stale ``EPOCH_END`` generation filtering, and
preemption through ``_apply_allocation`` with a ``None`` config.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.fifo import FIFOScheduler
from repro.cluster.allocation import Allocation
from repro.cluster.events import Event, EventKind
from repro.jobs.job import Job
from repro.sim.kernel import EventHandler, SimulationKernel
from repro.sim.ledger import ProgressLedger
from repro.sim.profiling import SimProfile
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from tests.conftest import make_spec


class _CountingHandler(EventHandler):
    kind = EventKind.TIMER

    def __init__(self) -> None:
        self.handled = 0

    def handle(self, event: Event) -> None:
        self.handled += 1


def _kernel(max_time=1e9, max_events=1000, handlers=None, profile=None):
    return SimulationKernel(
        max_time=max_time,
        max_events=max_events,
        advance_hook=lambda t: None,
        done=lambda: False,
        handlers=handlers or {},
        profile=profile,
    )


class TestKernelGuards:
    def test_max_events_cap_stops_the_loop(self):
        handler = _CountingHandler()
        kernel = _kernel(max_events=5, handlers={EventKind.TIMER: handler})
        for i in range(20):
            kernel.push(Event(time=float(i), kind=EventKind.TIMER))
        assert kernel.run() == 5
        assert handler.handled == 5
        assert len(kernel.events) == 15  # the rest stay queued, unprocessed

    def test_max_time_guard_stops_before_handling(self):
        handler = _CountingHandler()
        kernel = _kernel(max_time=10.0, handlers={EventKind.TIMER: handler})
        kernel.push(Event(time=5.0, kind=EventKind.TIMER))
        kernel.push(Event(time=50.0, kind=EventKind.TIMER))
        assert kernel.run() == 1
        assert handler.handled == 1
        assert kernel.now == 5.0  # never advanced past the guard

    def test_time_goes_backwards_raises(self):
        kernel = _kernel()
        kernel.advance(100.0)
        with pytest.raises(RuntimeError, match="time went backwards"):
            kernel.advance(50.0)

    def test_tiny_backwards_drift_is_clamped(self):
        kernel = _kernel()
        kernel.advance(100.0)
        kernel.advance(100.0 - 1e-12)  # within tolerance: clamped, not fatal
        assert kernel.now == 100.0

    def test_simulator_advance_time_keeps_the_guard(self, small_topology):
        simulator = ClusterSimulator(
            small_topology, FIFOScheduler(), [make_spec(job_id="solo")]
        )
        simulator.kernel.advance(10.0)
        with pytest.raises(RuntimeError, match="time went backwards"):
            simulator.kernel.advance(5.0)

    def test_unknown_event_kind_is_ignored(self):
        kernel = _kernel()
        kernel.push(Event(time=1.0, kind=EventKind.RECONFIG_DONE))
        assert kernel.run() == 1  # processed (clock advanced), no handler

    def test_profile_records_phases(self):
        profile = SimProfile()
        handler = _CountingHandler()
        kernel = _kernel(handlers={EventKind.TIMER: handler}, profile=profile)
        kernel.push(Event(time=1.0, kind=EventKind.TIMER))
        kernel.run()
        payload = profile.as_dict()
        assert payload["events_timer"] == 1.0
        assert payload["handler_timer_seconds"] >= 0.0
        assert payload["advance_seconds"] >= 0.0


class TestStaleEpochEnds:
    def _armed_simulator(self, small_topology):
        spec = make_spec(job_id="solo", dataset_size=2000)
        simulator = ClusterSimulator(small_topology, FIFOScheduler(), [spec])
        simulator.handlers[EventKind.JOB_ARRIVAL].handle(
            Event(time=0.0, kind=EventKind.JOB_ARRIVAL, job_id="solo")
        )
        return simulator, simulator.jobs["solo"]

    def test_stale_generation_is_dropped(self, small_topology):
        simulator, job = self._armed_simulator(small_topology)
        assert job.is_running
        stale = Event(
            time=0.0, kind=EventKind.EPOCH_END, job_id="solo",
            generation=job.generation - 1,
        )
        simulator.handlers[EventKind.EPOCH_END].handle(stale)
        assert job.epochs_completed == 0  # dropped before any bookkeeping

    def test_current_generation_is_processed(self, small_topology):
        simulator, job = self._armed_simulator(small_topology)
        live = Event(
            time=0.0, kind=EventKind.EPOCH_END, job_id="solo",
            generation=job.generation,
        )
        simulator.handlers[EventKind.EPOCH_END].handle(live)
        assert job.epochs_completed == 1

    def test_unknown_or_idle_job_is_ignored(self, small_topology):
        simulator, job = self._armed_simulator(small_topology)
        simulator.handlers[EventKind.EPOCH_END].handle(
            Event(time=0.0, kind=EventKind.EPOCH_END, job_id="ghost", generation=0)
        )
        job.stop_running(simulator.now)
        simulator.ledger.pull(job)
        simulator.handlers[EventKind.EPOCH_END].handle(
            Event(time=0.0, kind=EventKind.EPOCH_END, job_id="solo",
                  generation=job.generation)
        )
        assert job.epochs_completed == 0


class TestPreemptionViaApplyAllocation:
    def test_none_config_releases_the_job(self, small_topology):
        spec = make_spec(job_id="solo", dataset_size=2000)
        simulator = ClusterSimulator(small_topology, FIFOScheduler(), [spec])
        simulator.handlers[EventKind.JOB_ARRIVAL].handle(
            Event(time=0.0, kind=EventKind.JOB_ARRIVAL, job_id="solo")
        )
        job = simulator.jobs["solo"]
        assert job.is_running
        assert simulator.ledger.rate_of("solo") > 0
        # An allocation without the job preempts it (config_of -> None).
        simulator._apply_allocation(Allocation.empty())
        assert not job.is_running
        assert job.gpu_ids == ()
        assert simulator.ledger.rate_of("solo") == 0.0
        assert simulator.ledger.resume_of("solo") == 0.0
        assert simulator.allocation == Allocation.empty()


class TestProgressLedger:
    def _running_job(self, job_id="j0", rate=100.0, now=0.0):
        job = Job(make_spec(job_id=job_id, dataset_size=2000))
        job.start_running(now, gpu_ids=[0], local_batches=[64])
        return job

    def test_advance_matches_scalar_job_advance(self):
        ledger = ProgressLedger()
        mirror = Job(make_spec(job_id="j0", dataset_size=2000))
        job = self._running_job()
        mirror.start_running(0.0, gpu_ids=[0], local_batches=[64])
        ledger.pull(job)
        ledger.set_rate("j0", 123.456)
        ledger.set_resume("j0", 2.5, 0.0)
        last_progress = 0.0
        for t in (1.0, 2.5, 7.75, 7.75, 30.0):
            ledger.advance_to(t)
            # scalar reference: the historical _advance_time body
            start = max(last_progress, 2.5)
            duration = max(0.0, t - start)
            if duration > 0:
                mirror.advance(123.456 * duration, duration)
            last_progress = t
        ledger.materialize("j0")
        assert job.samples_processed == mirror.samples_processed
        assert job.effective_epochs == mirror.effective_epochs
        assert job.throughput_profile.count == mirror.throughput_profile.count
        assert job.throughput_profile.mean == mirror.throughput_profile.mean

    def test_materialize_is_lazy(self):
        ledger = ProgressLedger()
        job = self._running_job()
        ledger.pull(job)
        ledger.set_rate("j0", 10.0)
        ledger.advance_to(5.0)
        assert job.samples_processed == 0.0  # not yet materialized
        ledger.materialize("j0")
        assert job.samples_processed == 50.0

    def test_pull_after_external_mutation(self):
        ledger = ProgressLedger()
        job = self._running_job()
        ledger.pull(job)
        ledger.set_rate("j0", 10.0)
        ledger.advance_to(5.0)
        ledger.materialize("j0")
        job.samples_processed = 2000.0  # e.g. epoch-boundary snap
        ledger.pull(job)
        ledger.advance_to(6.0)
        ledger.materialize("j0")
        assert job.samples_processed == 2010.0

    def test_non_running_jobs_do_not_advance(self):
        ledger = ProgressLedger()
        job = Job(make_spec(job_id="idle", dataset_size=2000))
        ledger.pull(job)
        assert len(ledger) == 0  # a job that does not run holds no slot
        ledger.advance_to(100.0)
        ledger.materialize_all()
        assert job.samples_processed == 0.0

    def test_grows_past_initial_capacity(self):
        ledger = ProgressLedger(capacity=2)
        jobs = []
        for i in range(7):
            job = self._running_job(job_id=f"j{i}")
            ledger.pull(job)
            jobs.append(job)
        assert len(ledger) == 7
        job = jobs[3]
        ledger.set_rate("j3", 10.0)
        ledger.advance_to(2.0)
        ledger.materialize_all()
        assert job.samples_processed == 20.0
        assert all(j.samples_processed == 0.0 for j in jobs if j is not job)

    def test_pull_of_a_running_job_keeps_one_slot(self):
        ledger = ProgressLedger()
        job = self._running_job()
        ledger.pull(job)
        ledger.pull(job)
        assert len(ledger) == 1
        job.stop_running(0.0)
        ledger.pull(job)
        assert len(ledger) == 0
        assert ledger.rate_of("j0") == 0.0 and ledger.resume_of("j0") == 0.0


def _job_fields(job):
    fields = dict(vars(job))
    fields["throughput_profile"] = dict(vars(job.throughput_profile))
    return fields


def _assert_same_fields(bulk, single):
    assert bulk.keys() == single.keys()
    for name, value in bulk.items():
        if isinstance(value, dict):
            _assert_same_fields(value, single[name])
            continue
        assert value == single[name], name
        assert type(value) is type(single[name]), name


class TestBulkWriteBack:
    """``materialize_all`` writes exactly what per-slot ``materialize`` does."""

    @staticmethod
    def _exercised_ledger(seed):
        rng = np.random.default_rng(seed)
        ledger = ProgressLedger(capacity=4)  # grows during the sequence
        jobs = []
        now = 0.0
        for step in range(120):
            op = rng.integers(0, 4) if jobs else 0
            if op == 0 and len(jobs) < 24:
                job = Job(make_spec(job_id=f"j{len(jobs)}", dataset_size=2000))
                if rng.random() < 0.7:
                    gpus = int(rng.integers(1, 4))
                    job.start_running(now, gpu_ids=list(range(gpus)), local_batches=[64] * gpus)
                ledger.pull(job)
                jobs.append(job)
            elif op == 1:
                job = jobs[rng.integers(0, len(jobs))]
                rate = float(rng.uniform(1.0, 500.0))
                if job.is_running:
                    ledger.set_rate(job.job_id, rate)
            elif op == 2:
                now += float(rng.exponential(5.0))
                ledger.advance_to(now)
            else:
                # A handler reads the job, mutates it (here: the loss spike
                # a batch change injects), and pulls it back.
                job = jobs[rng.integers(0, len(jobs))]
                ledger.materialize(job.job_id)
                job._loss_spike += float(rng.uniform(0.05, 0.5))
                ledger.pull(job)
        now += 7.5
        ledger.advance_to(now)
        return ledger, jobs

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_per_slot_materialize(self, seed):
        ledger, jobs = self._exercised_ledger(seed)
        assert len(ledger) == sum(job.is_running for job in jobs)
        twin, twin_jobs = copy.deepcopy((ledger, jobs))
        before = [_job_fields(job) for job in jobs]

        ledger.materialize_all()
        for job in twin_jobs:
            twin.materialize(job.job_id)

        # More than one job had progress to write back, a spiked one among them.
        moved = [
            job for job, old in zip(jobs, before)
            if old["samples_processed"] != job.samples_processed
        ]
        assert len(moved) > 1
        assert any(job._loss_spike != 0.0 for job in moved)
        for bulk, single in zip(jobs, twin_jobs):
            _assert_same_fields(_job_fields(bulk), _job_fields(single))
        # Neither path leaves anything pending: another write-back of
        # either kind changes no job.
        for job in jobs:
            ledger.materialize(job.job_id)
        twin.materialize_all()
        for bulk, single in zip(jobs, twin_jobs):
            _assert_same_fields(_job_fields(bulk), _job_fields(single))


#: Local batches a job may run at; a jump across them spikes the loss.
_BATCHES = (16, 64, 1024, 4096)
_SLOT_JOBS = 5


def _progress_bits(job):
    """The ledger-mirrored progress of ``job``, bit for bit."""
    profile = job.throughput_profile
    return (
        job.samples_processed.hex(),
        job.effective_epochs.hex(),
        job._loss_spike.hex(),
        profile.count,
        profile.mean.hex(),
    )


class _SlotModel:
    """Drives a ledger as the simulator does, next to scalar ``Job.advance`` mirrors.

    Each op acts on job ``i`` with parameters ``a, b, c`` in ``[0, 1]``.
    The model keeps the slot order the ledger documents (append on
    start, the last slot moves into a stopped job's hole) only to count
    which cases a sequence covered.
    """

    def __init__(self):
        self.ledger = ProgressLedger(capacity=2)  # grows during the sequence
        self.jobs = [Job(make_spec(job_id=f"j{i}", dataset_size=2000)) for i in range(_SLOT_JOBS)]
        self.mirrors = [Job(make_spec(job_id=f"j{i}", dataset_size=2000)) for i in range(_SLOT_JOBS)]
        self.rate, self.resume, self.last = {}, {}, {}
        self.now = 0.0
        self.slots = []
        self.nonlast_removals = 0
        self.overhead_rounds = 0
        self.spiked = 0

    def apply(self, op, i, a, b, c):
        getattr(self, op)(i, a, b, c)
        assert len(self.ledger) == sum(job.is_running for job in self.jobs)

    def _read(self, i):
        """Materialize job ``i`` as a handler does, and check it against its mirror."""
        job, mirror = self.jobs[i], self.mirrors[i]
        self.ledger.materialize(job.job_id)
        assert _progress_bits(job) == _progress_bits(mirror)
        return job, mirror

    def _deploy(self, i, a, b, c):
        job, mirror = self.jobs[i], self.mirrors[i]
        gpus = 1 + int(3 * a)
        batch = _BATCHES[min(int(4 * b), 3)]
        for each in (job, mirror):
            each.start_running(self.now, gpu_ids=list(range(gpus)), local_batches=[batch] * gpus)
        self.spiked += job._loss_spike != 0.0
        self.ledger.pull(job)
        overhead, rate = 20.0 * c, 1.0 + 499.0 * b
        self.ledger.set_resume(job.job_id, self.now + overhead, self.now)
        self.ledger.set_rate(job.job_id, rate)
        self.resume[i], self.last[i], self.rate[i] = self.now + overhead, self.now, rate

    def start(self, i, a, b, c):
        if not self.jobs[i].is_running:
            self._deploy(i, a, b, c)
            self.slots.append(i)

    def reconfigure(self, i, a, b, c):
        if self.jobs[i].is_running:
            self._read(i)
            self._deploy(i, a, b, c)

    def stop(self, i, a, b, c):
        if not self.jobs[i].is_running:
            return
        job, mirror = self._read(i)
        if a > 0.5:
            # An eviction rolls back uncheckpointed work before the stop.
            for each in (job, mirror):
                each.samples_processed = max(0.0, each.samples_processed - 500.0 * a)
        for each in (job, mirror):
            each.stop_running(self.now)
        self.ledger.pull(job)
        slot = self.slots.index(i)
        self.nonlast_removals += slot != len(self.slots) - 1
        self.slots[slot] = self.slots[-1]
        self.slots.pop()

    def advance(self, i, a, b, c):
        self.now += 30.0 * a
        self.ledger.advance_to(self.now)
        for k in self.slots:
            start = max(self.last[k], self.resume[k])
            duration = max(0.0, self.now - start)
            if duration > 0:
                self.mirrors[k].advance(self.rate[k] * duration, duration)
            self.last[k] = self.now
        self.overhead_rounds += any(self.resume[k] > self.now for k in self.slots)

    def snap(self, i, a, b, c):
        if not self.jobs[i].is_running:
            return
        job, mirror = self._read(i)
        size = job.dataset_size
        boundary = float(round(job.samples_processed / size) * size)
        for each in (job, mirror):
            each.samples_processed = boundary
        self.ledger.set_samples(job.job_id, boundary)

    def flush(self, i, a, b, c):
        self.ledger.materialize_all()
        for job, mirror in zip(self.jobs, self.mirrors):
            assert _progress_bits(job) == _progress_bits(mirror), job.job_id


_OPS = st.tuples(
    st.sampled_from(("start", "stop", "reconfigure", "advance", "snap", "flush")),
    st.integers(min_value=0, max_value=_SLOT_JOBS - 1),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)

#: Opens every sequence: three jobs start with overheads of 4, 10 and 16 s;
#: the first round ends inside all of them and the second inside the last
#: two; job 1 jumps from batch 16 to 4096 (a loss spike) and its spike
#: decays in a round that job 2 spends inside a new overhead; job 0 stops
#: from the first of three slots, so the last slot moves into its hole.
_PREFIX = (
    ("start", 0, 0.0, 0.0, 0.2),
    ("start", 1, 0.4, 0.0, 0.5),
    ("start", 2, 0.9, 0.6, 0.8),
    ("advance", 0, 0.1, 0.0, 0.0),
    ("advance", 0, 0.2, 0.0, 0.0),
    ("advance", 0, 0.5, 0.0, 0.0),
    ("reconfigure", 1, 0.4, 0.99, 0.1),
    ("reconfigure", 2, 0.9, 0.6, 0.9),
    ("advance", 0, 0.3, 0.0, 0.0),
    ("stop", 0, 0.9, 0.0, 0.0),
    ("advance", 0, 0.4, 0.0, 0.0),
    ("snap", 2, 0.0, 0.0, 0.0),
    ("flush", 0, 0.0, 0.0, 0.0),
)


class TestRunningSlots:
    """Slots follow the running jobs, and a flush equals scalar ``Job.advance``."""

    @settings(max_examples=80, deadline=None)
    @given(ops=st.lists(_OPS, max_size=40))
    def test_random_sequences_match_scalar_mirrors(self, ops):
        model = _SlotModel()
        for op in _PREFIX + tuple(ops):
            model.apply(*op)
        model.flush(0, 0.0, 0.0, 0.0)
        assert model.nonlast_removals >= 1
        assert model.overhead_rounds >= 1
        assert model.spiked >= 1


class TestProfiledSimulation:
    def test_collect_profile_lands_in_result(self, small_topology, tiny_trace):
        config = SimulationConfig(collect_profile=True)
        result = ClusterSimulator(
            small_topology, FIFOScheduler(), tiny_trace, config=config
        ).run()
        assert result.profile  # non-empty phase table
        assert result.profile["advance_seconds"] >= 0.0
        assert result.profile["events_job_arrival"] == len(tiny_trace)
        # round-trips through the serializable result
        from repro.sim.simulator import SimulationResult

        clone = SimulationResult.from_dict(result.to_dict())
        assert clone.profile == result.profile

    def test_profile_off_by_default(self, small_topology, tiny_trace):
        result = ClusterSimulator(small_topology, FIFOScheduler(), tiny_trace).run()
        assert result.profile == {}


class TestOnlineStepping:
    def test_step_processes_one_event_at_a_time(self):
        handler = _CountingHandler()
        kernel = _kernel(handlers={EventKind.TIMER: handler})
        for t in (1.0, 2.0, 3.0):
            kernel.push(Event(time=t, kind=EventKind.TIMER))
        event = kernel.step()
        assert event is not None and event.time == 1.0
        assert handler.handled == 1
        assert kernel.now == 1.0
        assert len(kernel.events) == 2

    def test_step_returns_none_when_drained(self):
        kernel = _kernel()
        assert kernel.step() is None

    def test_step_respects_max_time_without_discarding(self):
        kernel = _kernel(max_time=5.0)
        kernel.push(Event(time=10.0, kind=EventKind.TIMER))
        assert kernel.step() is None
        # Unlike run(), the over-horizon event stays queued.
        assert len(kernel.events) == 1

    def test_step_respects_max_events(self):
        kernel = _kernel(max_events=1)
        kernel.push(Event(time=1.0, kind=EventKind.TIMER))
        kernel.push(Event(time=2.0, kind=EventKind.TIMER))
        assert kernel.step() is not None
        assert kernel.step() is None

    def test_inject_rejects_events_in_the_past(self):
        kernel = _kernel(handlers={EventKind.TIMER: _CountingHandler()})
        kernel.push(Event(time=10.0, kind=EventKind.TIMER))
        assert kernel.step() is not None
        with pytest.raises(RuntimeError, match="inject"):
            kernel.inject(Event(time=9.0, kind=EventKind.TIMER))

    def test_inject_accepts_present_and_future(self):
        kernel = _kernel(handlers={EventKind.TIMER: _CountingHandler()})
        kernel.push(Event(time=10.0, kind=EventKind.TIMER))
        kernel.step()
        kernel.inject(Event(time=10.0, kind=EventKind.TIMER))
        kernel.inject(Event(time=11.0, kind=EventKind.TIMER))
        assert len(kernel.events) == 2

    def test_interleaved_injection_matches_batch_schedule(self):
        """Stepping with mid-run injection == pushing everything upfront."""
        batch_handler = _CountingHandler()
        batch = _kernel(handlers={EventKind.TIMER: batch_handler})
        for t in (1.0, 2.0, 3.0, 4.0):
            batch.push(Event(time=t, kind=EventKind.TIMER))
        batch.run()

        live_handler = _CountingHandler()
        live = _kernel(handlers={EventKind.TIMER: live_handler})
        live.push(Event(time=1.0, kind=EventKind.TIMER))
        live.push(Event(time=2.0, kind=EventKind.TIMER))
        live.step()
        live.step()
        live.inject(Event(time=3.0, kind=EventKind.TIMER))
        live.inject(Event(time=4.0, kind=EventKind.TIMER))
        while live.step() is not None:
            pass
        assert live_handler.handled == batch_handler.handled
        assert live.events_processed == batch.events_processed
        assert live.now == batch.now

"""Durable work queue: lease protocol, queue backend parity, worker chaos.

Three layers of coverage, cheapest first:

* :class:`TestWorkQueue` — deterministic unit tests of the lease/claim/
  complete protocol itself, driven entirely through explicit ``now=``
  clocks (no sleeping, no subprocesses).
* :class:`TestQueueBackend` — the backend through the public Runner API:
  bit-identical parity with serial execution, idempotent resume, dead
  cells surfacing as placeholders.
* :class:`TestWorkerChaos` — the headline robustness drill: a real
  worker subprocess is SIGKILLed *mid-cell*, its lease expires, a second
  worker re-claims the cell, and the finished sweep is byte-identical to
  a serial run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.artifacts import SweepArtifact, dead_cell_artifact
from repro.experiments.backends import ExecutionPolicy, execute_run
from repro.experiments.orchestrator import Runner
from repro.experiments.queue import CellState, LeaseLostError, WorkQueue
from repro.experiments.spec import ExperimentSpec, RunSpec
from repro.workload.trace import TraceConfig


def _trace(**overrides) -> TraceConfig:
    base = dict(num_jobs=2, arrival_rate=0.1, convergence_patience=4)
    base.update(overrides)
    return TraceConfig(**base)


def _spec(**overrides) -> RunSpec:
    base = dict(scheduler="FIFO", num_gpus=8, seed=7, trace=_trace())
    base.update(overrides)
    return RunSpec(**base)


def _grid(**overrides) -> ExperimentSpec:
    schedulers = overrides.pop("schedulers", ("FIFO",))
    return ExperimentSpec(
        schedulers=tuple(schedulers),
        capacities=tuple(overrides.pop("capacities", (8,))),
        seeds=tuple(overrides.pop("seeds", (7,))),
        traces=(_trace(),),
        **overrides,
    )


def _specs(n: int):
    return [_spec(seed=seed) for seed in range(1, n + 1)]


class TestWorkQueue:
    def test_enqueue_is_idempotent_by_content_key(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        key, newly = queue.enqueue(_spec())
        assert newly
        assert key == _spec().cell_key()
        again, newly_again = queue.enqueue(_spec())
        assert again == key
        assert not newly_again
        assert queue.status().pending == 1

    def test_claim_is_exclusive_and_in_enqueue_order(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60.0)
        keys = queue.enqueue_all(_specs(2))
        first = queue.claim("alice", now=100.0)
        second = queue.claim("bob", now=100.0)
        assert first is not None and second is not None
        assert first[0] == keys[0]  # enqueue order == spec order
        assert second[0] == keys[1]
        assert queue.claim("carol", now=100.0) is None  # all leased
        assert queue.status(now=100.0).processing == 2

    def test_expired_lease_returns_cell_to_pending_and_charges_attempt(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0,
                          policy=ExecutionPolicy(max_retries=2))
        (key,) = queue.enqueue_all(_specs(1))
        assert queue.claim("alice", now=100.0) is not None
        assert queue.expire_leases(now=104.0) == 0  # still inside the TTL
        assert queue.expire_leases(now=106.0) == 1
        # The recovered cell shows as FAILED (one attempt charged) but is
        # immediately claimable again — FAILED is a retryable state.
        assert queue.state(key, now=106.0) is CellState.FAILED
        assert queue.attempts(key) == 1
        # The recovered cell is claimable by anyone.
        reclaim = queue.claim("bob", now=106.0)
        assert reclaim is not None and reclaim[0] == key

    def test_claim_itself_retires_a_stale_lease(self, tmp_path):
        # Recovery must not require a dedicated expire_leases() pass.
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0,
                          policy=ExecutionPolicy(max_retries=2))
        (key,) = queue.enqueue_all(_specs(1))
        assert queue.claim("alice", now=100.0) is not None
        reclaim = queue.claim("bob", now=200.0)
        assert reclaim is not None and reclaim[0] == key
        assert queue.status(now=200.0).expired_leases == 1

    def test_heartbeat_extends_and_rejects_non_holders(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0)
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("alice", now=100.0)
        deadline = queue.heartbeat(key, "alice", now=103.0)
        assert deadline == pytest.approx(108.0)
        assert queue.expire_leases(now=106.0) == 0  # renewed past the old deadline
        with pytest.raises(LeaseLostError):
            queue.heartbeat(key, "mallory", now=103.0)

    def test_fail_applies_exponential_backoff_gate(self, tmp_path):
        policy = ExecutionPolicy(max_retries=2, retry_backoff_s=10.0)
        queue = WorkQueue(tmp_path / "q", lease_ttl=60.0, policy=policy)
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("alice", now=100.0)
        state = queue.fail(key, "alice", "boom", now=100.0)
        assert state is CellState.FAILED
        # First retry waits retry_backoff_s * 2**0 = 10 s.
        assert queue.claim("alice", now=105.0) is None
        assert queue.state(key, now=105.0) is CellState.FAILED
        assert queue.claim("alice", now=111.0) is not None
        # Second failure doubles the gate (20 s) and is visible in the log.
        queue.fail(key, "alice", "boom again", now=111.0)
        assert queue.claim("alice", now=130.0) is None
        assert queue.claim("alice", now=132.0) is not None
        records = [json.loads(line) for line in
                   (tmp_path / "q" / "log.jsonl").read_text().splitlines()]
        backoffs = [r["backoff_s"] for r in records if r["event"] == "failed"]
        assert backoffs == [10.0, 20.0]

    def test_retry_budget_exhaustion_goes_dead_not_dropped(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60.0,
                          policy=ExecutionPolicy(max_retries=1))
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("alice", now=100.0)
        assert queue.fail(key, "alice", "boom 1", now=100.0) is CellState.FAILED
        queue.claim("alice", now=200.0)
        assert queue.fail(key, "alice", "boom 2", now=200.0) is CellState.DEAD
        assert queue.state(key) is CellState.DEAD
        assert queue.claim("bob", now=300.0) is None  # dead cells are never re-offered
        info = queue.dead_info(key)
        assert info is not None and "boom 2" in info["error"]
        status = queue.status()
        assert status.dead == 1 and status.terminal

    def test_lease_expiries_charge_the_same_retry_budget(self, tmp_path):
        # A cell that keeps killing its workers must converge to DEAD,
        # not crash-loop forever.
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0,
                          policy=ExecutionPolicy(max_retries=1))
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("w1", now=100.0)
        assert queue.expire_leases(now=110.0) == 1  # attempt 1 spent
        queue.claim("w2", now=110.0)
        assert queue.expire_leases(now=120.0) == 1  # attempt 2 > budget
        assert queue.state(key) is CellState.DEAD
        assert "expired" in queue.dead_info(key)["error"]

    def test_complete_publishes_a_loadable_artifact(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60.0)
        spec = _spec()
        (key,) = queue.enqueue_all([spec])
        queue.claim("alice", now=100.0)
        artifact = execute_run(spec)
        queue.complete(key, "alice", artifact)
        assert queue.state(key) is CellState.COMPLETED
        loaded = queue.load_result(key)
        assert loaded is not None
        assert loaded.to_json() == artifact.to_json()
        assert queue.status().terminal

    def test_partial_result_write_is_detected_and_ignored(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60.0)
        spec = _spec()
        (key,) = queue.enqueue_all([spec])
        artifact = execute_run(spec)
        # Truncated file: fails to parse.
        queue.result_path(key).write_text(artifact.to_json()[: len(artifact.to_json()) // 2])
        assert queue.load_result(key) is None
        # Parseable file whose content hash does not match the cell: a
        # different cell's artifact copied (or hand-edited) into place.
        other = execute_run(_spec(seed=99))
        queue.result_path(key).write_text(other.to_json() + "\n")
        assert queue.load_result(key) is None

    def test_fresh_instance_resumes_from_the_log(self, tmp_path):
        path = tmp_path / "q"
        first = WorkQueue(path, lease_ttl=42.0,
                          policy=ExecutionPolicy(max_retries=3, retry_backoff_s=1.5))
        keys = first.enqueue_all(_specs(2))
        first.claim("alice", now=100.0)
        first.fail(keys[0], "alice", "boom", now=100.0)
        # A second process opens the same directory: config and state are
        # rebuilt from queue.json + the log, not from memory.
        second = WorkQueue(path)
        assert second.lease_ttl == 42.0
        assert second.policy.max_retries == 3
        assert second.policy.retry_backoff_s == 1.5
        assert second.attempts(keys[0]) == 1
        status = second.status(now=100.0)
        assert status.pending == 1 and status.failed == 1
        assert second.enqueue(_spec(seed=1)) == (keys[0], False)

    def test_sweep_settings_hold_when_a_worker_opened_the_queue_first(self, tmp_path):
        path = tmp_path / "q"
        # A worker started before its sweep creates queue.json with the
        # defaults (no retries, 30-s leases) ...
        worker = WorkQueue(path)
        assert worker.policy.max_retries == 0
        # ... and the sweep's explicit budget and TTL replace them.
        sweep = WorkQueue(path, lease_ttl=5.0, policy=ExecutionPolicy(max_retries=2))
        (key,) = sweep.enqueue_all(_specs(1))
        assert worker.claim("victim", now=100.0) is not None
        assert worker.lease_ttl == 5.0
        # The victim dies; the worker-side instance expires its lease and
        # charges the sweep's budget: the cell is retried, not DEAD.
        assert worker.expire_leases(now=106.0) == 1
        assert worker.state(key, now=106.0) is CellState.FAILED
        assert worker.claim("rescuer", now=106.0)[0] == key
        fresh = WorkQueue(path)
        assert fresh.policy.max_retries == 2
        assert fresh.lease_ttl == 5.0


class TestClockSafety:
    """Stepped-clock regressions: NTP steps/skew must not break leases.

    Lease deadlines are wall-clock timestamps compared across hosts, so
    expiry gets ``skew_margin`` seconds of slack (default 1.0).  These
    tests drive the protocol with explicit ``now=`` clocks that disagree
    the way stepped/offset host clocks do.
    """

    def test_small_forward_step_cannot_steal_a_healthy_lease(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0)
        queue.enqueue_all(_specs(1))
        key, _ = queue.claim("alice", now=100.0)  # deadline 105.0
        # An observer whose clock stepped 0.9s ahead of the worker's sees
        # now=105.9 — past the raw deadline, inside the margin.
        assert queue.expire_leases(now=105.9) == 0
        assert queue.state(key, now=105.9) is CellState.PROCESSING
        assert queue.claim("mallory", now=105.9) is None

    def test_step_past_the_margin_still_fails_over(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0,
                          policy=ExecutionPolicy(max_retries=2))
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("alice", now=100.0)
        # Dead-worker detection is delayed by exactly the margin, never lost.
        assert queue.expire_leases(now=106.0) == 1
        assert queue.state(key, now=106.0) is CellState.FAILED
        assert queue.attempts(key) == 1

    def test_zero_margin_reproduces_the_raw_deadline(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0, skew_margin=0.0)
        queue.enqueue_all(_specs(1))
        queue.claim("alice", now=100.0)
        assert queue.expire_leases(now=104.9) == 0
        assert queue.expire_leases(now=105.0) == 1

    def test_heartbeat_renewal_pushes_the_margin_window(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0)
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("alice", now=100.0)
        assert queue.heartbeat(key, "alice", now=103.0) == 108.0
        assert queue.expire_leases(now=108.9) == 0  # inside renewed margin
        assert queue.expire_leases(now=109.0) == 1

    def test_margin_is_persisted_and_shared_via_queue_json(self, tmp_path):
        path = tmp_path / "q"
        first = WorkQueue(path, lease_ttl=5.0, skew_margin=2.5)
        config = json.loads((path / "queue.json").read_text())
        assert config["skew_margin"] == 2.5
        second = WorkQueue(path)  # another process: same margin
        assert second.skew_margin == 2.5
        second.enqueue_all(_specs(1))
        second.claim("alice", now=100.0)
        assert second.expire_leases(now=107.0) == 0  # 105 + 2.5 margin
        assert second.expire_leases(now=107.5) == 1

    def test_legacy_queue_config_without_margin_gets_no_slack(self, tmp_path):
        path = tmp_path / "q"
        WorkQueue(path, lease_ttl=5.0)
        config_path = path / "queue.json"
        config = json.loads(config_path.read_text())
        del config["skew_margin"]  # a queue.json written before the margin existed
        config_path.write_text(json.dumps(config))
        reopened = WorkQueue(path)
        assert reopened.skew_margin == 0.0

    def test_negative_margin_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(tmp_path / "q", skew_margin=-0.1)

    def test_snapshot_reports_the_margin(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0)
        queue.enqueue_all(_specs(1))
        assert queue.as_json(now=100.0)["skew_margin"] == 1.0


class TestQueueBackend:
    def test_queue_sweep_is_bit_identical_to_serial(self, tmp_path):
        spec = _grid(schedulers=("FIFO", "SRTF"), seeds=(7, 8))
        serial = Runner(backend="serial").run(spec)
        runner = Runner(backend="queue", queue_dir=tmp_path / "q", workers=2,
                        lease_ttl=60.0)
        sweep = runner.run(spec)
        assert sweep.to_json() == serial.to_json()
        assert runner.stats.claimed_cells == 4
        assert runner.stats.dead_cells == 0

    def test_fresh_run_resumes_idempotently_by_cell_key(self, tmp_path):
        spec = _grid(seeds=(7, 8))
        queue_dir = tmp_path / "q"
        first = Runner(backend="queue", queue_dir=queue_dir, workers=1, lease_ttl=60.0)
        sweep = first.run(spec)
        # Second invocation against the same directory: nothing re-runs —
        # even with zero workers attached, every cell is already terminal.
        second = Runner(backend="queue", queue_dir=queue_dir, workers=0, lease_ttl=60.0)
        resumed = second.run(spec)
        assert resumed.to_json() == sweep.to_json()
        assert second.stats.claimed_cells == first.stats.claimed_cells  # no new claims

    def test_poisoned_cell_lands_dead_with_placeholder(self, tmp_path):
        # "NoSuchScheduler" passes spec validation but fails at execution
        # time on every attempt — the queue must finish the grid anyway.
        spec = _grid(schedulers=("FIFO", "NoSuchScheduler"))
        runner = Runner(backend="queue", queue_dir=tmp_path / "q", workers=1,
                        lease_ttl=60.0, max_retries=1)
        sweep = runner.run(spec)
        assert len(sweep.runs) == 2
        dead = sweep.dead_runs()
        assert len(dead) == 1
        assert dead[0].spec.scheduler == "NoSuchScheduler"
        assert dead[0].is_dead
        assert "NoSuchScheduler" in dead[0].error or "failed attempts" in dead[0].error
        assert runner.stats.dead_cells == 1
        assert "1 dead" in runner.stats.describe()
        # The healthy cell still produced its artifact.
        healthy = [run for run in sweep.runs if not run.is_dead]
        assert len(healthy) == 1
        assert healthy[0].to_json() == execute_run(healthy[0].spec).to_json()

    def test_dead_placeholder_never_enters_the_resume_cache(self, tmp_path):
        spec = _grid(schedulers=("NoSuchScheduler",))
        runner = Runner(backend="queue", queue_dir=tmp_path / "q", workers=1,
                        lease_ttl=60.0, cache_dir=tmp_path / "cells")
        sweep = runner.run(spec)
        assert sweep.dead_runs()
        assert list((tmp_path / "cells").glob("*.json")) == []

    def test_queue_dir_argument_validation(self, tmp_path):
        with pytest.raises(ValueError, match="queue_dir"):
            Runner(backend="queue")
        with pytest.raises(ValueError, match="queue"):
            Runner(backend="serial", queue_dir=tmp_path / "q")


def _worker_env() -> dict:
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
    return env


def _start_worker(queue_dir: Path, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.worker", str(queue_dir), *extra],
        env=_worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_for_log_event(queue_dir: Path, event: str, timeout: float = 60.0) -> None:
    log = queue_dir / "log.jsonl"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if log.exists():
            for line in log.read_text().splitlines():
                try:
                    if json.loads(line).get("event") == event:
                        return
                except json.JSONDecodeError:
                    continue  # torn tail line mid-write
        time.sleep(0.1)
    raise AssertionError(f"no {event!r} record appeared in {log} within {timeout}s")


class TestWorkerChaos:
    def test_sigkilled_worker_is_recovered_and_sweep_matches_serial(self, tmp_path):
        """The acceptance drill: kill -9 a worker mid-cell, finish anyway."""
        spec = _spec()
        serial = execute_run(spec)
        queue_dir = tmp_path / "q"
        queue = WorkQueue(queue_dir, lease_ttl=1.0,
                          policy=ExecutionPolicy(max_retries=3))
        (key,) = queue.enqueue_all([spec])

        # Worker 1 claims the cell, then holds it (simulating a long cell)
        # without ever reaching the execute step — SIGKILL lands mid-cell.
        victim = _start_worker(queue_dir, "--hold-s", "120", "--worker-id", "victim")
        try:
            _wait_for_log_event(queue_dir, "claimed")
            claim_time = time.time()
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()

        # At claim time the dead worker still holds a live lease; nothing
        # has retired it yet (the lease file is still in place).
        assert queue.state(key, now=claim_time) is CellState.PROCESSING

        # Worker 2 arrives, expires the stale lease, re-claims, finishes.
        rescuer = _start_worker(queue_dir, "--exit-when-done", "--worker-id", "rescuer")
        try:
            assert rescuer.wait(timeout=120) == 0
        finally:
            if rescuer.poll() is None:
                rescuer.kill()

        status = queue.status()
        assert status.completed == 1
        assert status.expired_leases == 1
        assert status.claims == 2  # victim's claim + rescuer's re-claim
        recovered = queue.load_result(key)
        assert recovered is not None
        assert recovered.to_json() == serial.to_json()
        # The log tells the whole story, in order, durably.
        events = [json.loads(line)["event"]
                  for line in (queue_dir / "log.jsonl").read_text().splitlines()]
        assert events == ["enqueued", "claimed", "expired", "claimed", "completed"]

    def test_runner_waits_out_an_externally_killed_worker(self, tmp_path):
        """Same drill through Runner.run: the waiting side drives expiry."""
        spec = _grid()
        queue_dir = tmp_path / "q"
        # Pre-create the queue so the external victim can claim before the
        # Runner attaches (the Runner enqueues the same cell idempotently).
        queue = WorkQueue(queue_dir, lease_ttl=1.0,
                          policy=ExecutionPolicy(max_retries=3))
        queue.enqueue_all(spec.expand())
        victim = _start_worker(queue_dir, "--hold-s", "120", "--worker-id", "victim")
        try:
            _wait_for_log_event(queue_dir, "claimed")
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()

        runner = Runner(backend="queue", queue_dir=queue_dir, workers=1,
                        lease_ttl=1.0, max_retries=3)
        sweep = runner.run(spec)
        serial = Runner(backend="serial").run(spec)
        assert sweep.to_json() == serial.to_json()
        assert runner.stats.expired_leases == 1
        assert "1 leases expired" in runner.stats.describe()


class TestDeadCellPlaceholders:
    def test_dead_cell_artifact_shape(self):
        spec = _spec()
        placeholder = dead_cell_artifact(spec, "ValueError: boom", attempts=3)
        assert placeholder.is_dead
        assert "boom" in placeholder.error
        assert "3 failed attempts" in placeholder.error
        payload = placeholder.to_dict()
        assert payload["error"] == placeholder.error
        round_tripped = type(placeholder).from_dict(payload)
        assert round_tripped.is_dead
        assert round_tripped.error == placeholder.error

    def test_live_artifacts_serialise_without_error_key(self):
        artifact = execute_run(_spec())
        assert not artifact.is_dead
        assert "error" not in artifact.to_dict()  # historical schema unchanged

    def test_sweep_aggregations_skip_dead_cells(self):
        spec = _grid(schedulers=("FIFO", "SRTF"))
        cells = spec.expand()
        runs = [
            execute_run(cells[0]),
            dead_cell_artifact(cells[1], "RuntimeError: poisoned"),
        ]
        sweep = SweepArtifact(spec=spec, runs=runs)
        assert len(sweep.dead_runs()) == 1
        table = sweep.mean_metric_table("jct")
        assert "FIFO" in table and table["FIFO"]
        assert not table.get("SRTF")  # no live cells -> no entries


class TestQueueObservability:
    """Trace events for lease transitions, and the --since event-log filter."""

    @pytest.fixture(autouse=True)
    def _clean_tracer(self):
        from repro.obs.trace import uninstall_tracer

        uninstall_tracer()
        yield
        uninstall_tracer()

    def test_lease_transitions_mirror_into_the_trace(self, tmp_path):
        from repro.obs.trace import TraceRecorder, install_tracer

        tracer = install_tracer(TraceRecorder())
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0,
                          policy=ExecutionPolicy(max_retries=0))
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("alice", now=100.0)
        queue.fail(key, "alice", "boom", now=101.0)
        names = [r["name"] for r in tracer.records() if r["cat"] == "queue"]
        assert names[0] == "enqueued"
        assert "claimed" in names
        assert "failed" in names
        assert "dead" in names  # max_retries=0: first failure goes terminal
        claimed = next(r for r in tracer.records() if r["name"] == "claimed")
        assert claimed["attrs"]["cell"] == key
        assert claimed["attrs"]["worker"] == "alice"
        assert claimed["parent"] is None

    def test_expiry_and_heartbeat_traced(self, tmp_path):
        from repro.obs.trace import TraceRecorder, install_tracer

        tracer = install_tracer(TraceRecorder())
        queue = WorkQueue(tmp_path / "q", lease_ttl=5.0)
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("alice", now=100.0)
        queue.heartbeat(key, "alice", now=102.0)
        queue.expire_leases(now=200.0)
        names = [r["name"] for r in tracer.records() if r["cat"] == "queue"]
        assert "heartbeat" in names
        assert "expired" in names
        beat = next(r for r in tracer.records() if r["name"] == "heartbeat")
        assert beat["attrs"]["deadline"] == 107.0

    def test_queue_is_silent_without_a_tracer(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.enqueue_all(_specs(1))
        assert queue.status().pending == 1  # no tracer installed: no crash

    def test_cell_rows_since_filters_stale_cells(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        keys = queue.enqueue_all(_specs(2))
        # Age one cell's newest event far into the past.
        queue._cells[keys[0]].last_event_ts = time.time() - 3600.0
        rows = queue.cell_rows(since=60.0)
        assert [row["cell"] for row in rows] == [keys[1]]
        assert rows[0]["last_event_age_s"] is not None
        assert rows[0]["last_event_age_s"] < 60.0
        # Without the filter both cells report, with their event ages.
        all_rows = queue.cell_rows()
        assert len(all_rows) == 2

    def test_last_event_ts_survives_log_replay(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl=60.0)
        (key,) = queue.enqueue_all(_specs(1))
        queue.claim("alice")
        fresh = WorkQueue(tmp_path / "q")
        fresh.status()  # force a log replay into the in-memory cell table
        assert fresh._cells[key].last_event_ts == pytest.approx(
            queue._cells[key].last_event_ts
        )
        assert fresh.cell_rows(since=3600.0)

    def test_worker_logs_the_settings_in_force_at_each_claim(self, tmp_path, capsys):
        import threading

        from repro.experiments.worker import run_worker

        path = tmp_path / "q"
        settled = []
        worker = threading.Thread(
            target=lambda: settled.append(
                run_worker(str(path), worker_id="early", max_cells=1, poll_interval=0.02)
            )
        )
        worker.start()
        # The worker attaches first and writes the default settings ...
        deadline = time.monotonic() + 30.0
        while not (path / "queue.json").exists():
            assert time.monotonic() < deadline, "the worker never attached"
            time.sleep(0.01)
        # ... which the sweep then replaces before it enqueues.
        sweep = WorkQueue(path, lease_ttl=5.0, policy=ExecutionPolicy(max_retries=2))
        sweep.enqueue_all(_specs(1))
        worker.join(timeout=60.0)
        assert not worker.is_alive()
        assert settled == [1]
        lines = capsys.readouterr().out.splitlines()
        claimed = [line for line in lines if line.startswith("[early] claimed ")]
        assert len(claimed) == 1
        assert "lease TTL 5.0s" in claimed[0]
        assert "retries=2" in claimed[0]

    def test_worker_trace_out_writes_jsonl(self, tmp_path):
        from repro.experiments.worker import run_worker
        from repro.obs.trace import active_tracer, load_jsonl, validate_trace_file

        queue = WorkQueue(tmp_path / "q")
        queue.enqueue_all(_specs(1))
        trace_path = tmp_path / "worker.trace.jsonl"
        settled = run_worker(
            str(tmp_path / "q"), worker_id="w0", exit_when_done=True,
            verbose=False, trace_out=str(trace_path),
        )
        assert settled == 1
        assert active_tracer() is None  # worker uninstalls what it installed
        assert validate_trace_file(str(trace_path)) == []
        _, records = load_jsonl(str(trace_path))
        names = {r["name"] for r in records}
        assert {"claimed", "completed"} <= names
        execute = next(r for r in records if r["name"] == "execute")
        assert execute["kind"] == "span"
        assert execute["cat"] == "worker"
        assert execute["attrs"]["outcome"] == "completed"
        assert execute["attrs"]["worker"] == "w0"

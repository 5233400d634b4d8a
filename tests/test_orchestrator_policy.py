"""Per-cell execution policy: timeouts, retries and RunnerStats counts."""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.experiments.backends import (
    AttemptCounter,
    CellTimeoutError,
    ExecutionPolicy,
    SerialBackend,
    execute_run_with_policy,
)
from repro.experiments.orchestrator import Runner, RunnerStats
from repro.experiments import registry
from repro.experiments.registry import register_scheduler
from repro.experiments.spec import ExperimentSpec, RunSpec
from repro.baselines.fifo import FIFOScheduler
from repro.workload.trace import TraceConfig

_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


def _spec(**overrides) -> RunSpec:
    base = dict(
        scheduler="FIFO",
        num_gpus=8,
        seed=7,
        trace=TraceConfig(num_jobs=2, arrival_rate=0.1, convergence_patience=4),
    )
    base.update(overrides)
    return RunSpec(**base)


def _grid(**overrides) -> ExperimentSpec:
    return ExperimentSpec(
        schedulers=(overrides.pop("scheduler", "FIFO"),),
        capacities=(8,),
        seeds=(7,),
        traces=(TraceConfig(num_jobs=2, arrival_rate=0.1, convergence_patience=4),),
        **overrides,
    )


class _SlowScheduler(FIFOScheduler):
    """FIFO that sleeps long enough to blow any sub-second timeout."""

    name = "SlowFIFO"

    def on_job_arrival(self, job, state):
        time.sleep(30.0)
        return super().on_job_arrival(job, state)


class _FlakyScheduler(FIFOScheduler):
    """Fails on the first instantiation (marked on disk), then behaves."""

    name = "FlakyFIFO"

    def __init__(self, marker: str) -> None:
        super().__init__()
        import pathlib

        path = pathlib.Path(marker)
        if not path.exists():
            path.write_text("attempt 1\n")
            raise RuntimeError("transient failure on the first attempt")


@pytest.fixture
def scratch_registry(monkeypatch):
    """Registry copies that the test's end restores."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(registry, "_LOOKUP", dict(registry._LOOKUP))


@pytest.fixture
def slow_registered(scratch_registry):
    register_scheduler(
        "SlowFIFO", capabilities=FIFOScheduler.capabilities, description="test-only"
    )(lambda seed, **options: _SlowScheduler())
    return "SlowFIFO"


@pytest.fixture
def flaky_registered(scratch_registry):
    register_scheduler(
        "FlakyFIFO", capabilities=FIFOScheduler.capabilities, description="test-only"
    )(lambda seed, **options: _FlakyScheduler(options["marker"]))
    return "FlakyFIFO"


class TestExecutionPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_retries=-1)
        assert ExecutionPolicy().is_default
        assert not ExecutionPolicy(timeout_s=5.0).is_default
        assert not ExecutionPolicy(max_retries=1).is_default

    def test_backoff_validation_and_schedule(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(retry_backoff_s=-1.0)
        policy = ExecutionPolicy(max_retries=3, retry_backoff_s=2.0)
        assert not policy.is_default
        assert [policy.backoff_delay(i) for i in range(3)] == [2.0, 4.0, 8.0]
        assert ExecutionPolicy().backoff_delay(5) == 0.0  # no base -> no waiting

    def test_policy_round_trips_through_dict(self):
        # The queue backend persists the policy in queue.json; every field
        # must survive the round trip so workers see the same guard-rails.
        policy = ExecutionPolicy(timeout_s=7.5, max_retries=2, retry_backoff_s=1.25)
        assert ExecutionPolicy.from_dict(policy.to_dict()) == policy
        assert ExecutionPolicy.from_dict(ExecutionPolicy().to_dict()) == ExecutionPolicy()

    def test_default_policy_is_plain_execution(self):
        artifact = execute_run_with_policy(_spec(), None)
        assert artifact.spec == _spec()

    def test_timeout_with_resolver_rejected(self):
        backend = SerialBackend(resolver=lambda name, seed, **o: FIFOScheduler())
        with pytest.raises(ValueError, match="registry"):
            backend.run([_spec()], policy=ExecutionPolicy(timeout_s=5.0))


class TestRunnerStatsShape:
    def test_new_fields_default_zero_and_serialise(self):
        stats = RunnerStats(total_cells=3, executed_cells=3)
        assert stats.retried_cells == 0
        assert stats.timed_out_cells == 0
        # The historical one-liner (grepped by CI) is unchanged when the
        # policy never fired.
        assert "retried" not in stats.describe()
        busy = RunnerStats(total_cells=3, retried_cells=2, timed_out_cells=1)
        assert "(2 retried, 1 timed out)" in busy.describe()


@pytest.mark.skipif(not _FORK, reason="watchdog subprocess tests require fork start method")
class TestTimeouts:
    def test_generous_timeout_produces_identical_artifact(self):
        spec = _spec()
        direct = execute_run_with_policy(spec, None)
        guarded = execute_run_with_policy(spec, ExecutionPolicy(timeout_s=120.0))
        assert guarded.to_json() == direct.to_json()

    def test_slow_cell_times_out_and_counts(self, slow_registered):
        runner = Runner(timeout_s=1.0)
        with pytest.raises(CellTimeoutError):
            runner.run(_grid(scheduler=slow_registered))
        assert runner.stats.timed_out_cells == 1
        assert runner.stats.retried_cells == 0
        assert "1 timed out" in runner.stats.describe()

    def test_timeout_retries_are_counted(self, slow_registered):
        counter = AttemptCounter()
        with pytest.raises(CellTimeoutError):
            execute_run_with_policy(
                _spec(scheduler=slow_registered),
                ExecutionPolicy(timeout_s=0.5, max_retries=2),
                counter=counter,
            )
        assert counter.timeouts == 3
        assert counter.retries == 2


class TestRetries:
    def test_flaky_cell_recovers_with_retry(self, flaky_registered, tmp_path):
        marker = str(tmp_path / "flaky-marker")
        spec = _grid(
            scheduler=flaky_registered,
            scheduler_options={flaky_registered: {"marker": marker}},
        )
        runner = Runner(max_retries=1)
        sweep = runner.run(spec)
        assert len(sweep.runs) == 1
        assert runner.stats.retried_cells == 1
        assert runner.stats.timed_out_cells == 0
        assert "(1 retried, 0 timed out)" in runner.stats.describe()

    def test_retry_backoff_sleeps_between_attempts(self, flaky_registered, tmp_path,
                                                   monkeypatch):
        import repro.experiments.backends as backends_module

        slept = []
        monkeypatch.setattr(backends_module.time, "sleep", slept.append)
        marker = str(tmp_path / "flaky-marker")
        spec = _grid(
            scheduler=flaky_registered,
            scheduler_options={flaky_registered: {"marker": marker}},
        )
        runner = Runner(max_retries=2, retry_backoff_s=3.0)
        sweep = runner.run(spec)
        assert len(sweep.runs) == 1
        # One failed attempt -> one backoff sleep of the base delay; the
        # second attempt succeeds so the doubled delay is never paid.
        assert slept == [3.0]

    def test_no_backoff_means_no_sleep(self, flaky_registered, tmp_path, monkeypatch):
        import repro.experiments.backends as backends_module

        slept = []
        monkeypatch.setattr(backends_module.time, "sleep", slept.append)
        marker = str(tmp_path / "flaky-marker")
        spec = _grid(
            scheduler=flaky_registered,
            scheduler_options={flaky_registered: {"marker": marker}},
        )
        Runner(max_retries=1).run(spec)
        assert slept == []

    def test_exhausted_retries_reraise(self, flaky_registered, tmp_path):
        # Without a retry budget the first (failing) attempt is final.
        marker = str(tmp_path / "flaky-marker")
        spec = _grid(
            scheduler=flaky_registered,
            scheduler_options={flaky_registered: {"marker": marker}},
        )
        runner = Runner()
        with pytest.raises(RuntimeError, match="transient"):
            runner.run(spec)
        assert runner.stats.retried_cells == 0

"""Backend parity, artifact round-trips and Runner caching/resume tests.

The headline guarantee of the orchestration layer: executing a grid on
the process-pool backend produces artifacts *bit-identical* to serial
execution (same per-job JCTs, makespans and event counts), and resuming
a cached sweep executes nothing.
"""

import json
import typing
from pathlib import Path

import pytest

from repro.analysis.metrics import improvement_over, mean_metric
from repro.baselines.fifo import FIFOScheduler
from repro.experiments.artifacts import RunArtifact, SweepArtifact
from repro.experiments.backends import (
    ProcessPoolBackend,
    QueueBackend,
    SerialBackend,
    execute_run,
    make_backend,
    simulate_run,
)
from repro.experiments.orchestrator import Runner
from repro.experiments.spec import ExperimentSpec, RunSpec
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig

TINY_TRACE = TraceConfig(num_jobs=3, arrival_rate=1.0 / 10.0, convergence_patience=3)
TINY_SIM = SimulationConfig(max_time=24 * 3600.0)


def tiny_grid(**overrides) -> ExperimentSpec:
    defaults = dict(
        schedulers=("ONES", "FIFO"),
        capacities=(8,),
        seeds=(7, 9),
        traces=(TINY_TRACE,),
        simulation=TINY_SIM,
        scheduler_options={"ONES": {"population_size": 4}},
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestExecuteRun:
    def test_simulate_run_completes_all_jobs(self):
        spec = RunSpec(scheduler="FIFO", num_gpus=8, seed=7, trace=TINY_TRACE,
                       simulation=TINY_SIM)
        result = simulate_run(spec)
        assert result.scheduler_name == "FIFO"
        assert len(result.completed) == 3
        assert result.jobs  # in-process results keep their Job objects

    def test_execute_run_artifact_is_job_less_and_round_trips(self):
        spec = RunSpec(scheduler="FIFO", num_gpus=8, seed=7, trace=TINY_TRACE,
                       simulation=TINY_SIM)
        artifact = execute_run(spec)
        assert artifact.result.jobs == {}
        assert artifact.telemetry["scheduler"] == "FIFO"
        assert artifact.telemetry["reconfigurations"] == artifact.result.num_reconfigurations
        restored = RunArtifact.from_json(artifact.to_json())
        assert restored == artifact
        assert restored.to_dict() == artifact.to_dict()

    def test_execution_is_deterministic(self):
        spec = RunSpec(scheduler="ONES", num_gpus=8, seed=7, trace=TINY_TRACE,
                       simulation=TINY_SIM, scheduler_options={"population_size": 4})
        assert execute_run(spec) == execute_run(spec)

    def test_serial_backend_resolver_escape_hatch(self):
        calls = []

        def resolver(name, seed, **options):
            calls.append((name, seed))
            return FIFOScheduler()

        spec = RunSpec(scheduler="NotRegistered", num_gpus=8, seed=7, trace=TINY_TRACE,
                       simulation=TINY_SIM)
        [artifact] = SerialBackend(resolver=resolver).run([spec])
        assert calls == [("NotRegistered", 7)]
        assert artifact.result.scheduler_name == "FIFO"


class TestBackendParity:
    def test_process_pool_bit_identical_to_serial(self):
        spec = tiny_grid()
        serial = SerialBackend().run(spec.expand())
        parallel = ProcessPoolBackend(max_workers=2).run(spec.expand())
        assert len(serial) == len(parallel) == spec.num_cells
        for ours, theirs in zip(serial, parallel):
            # Bit-identical artifacts: per-job metrics (JCT / execution /
            # queuing), makespan, event counts, telemetry — everything.
            assert ours.spec == theirs.spec
            assert ours.result.completed == theirs.result.completed
            assert ours.result.makespan == theirs.result.makespan
            assert ours.result.events_processed == theirs.result.events_processed
            assert ours.to_dict() == theirs.to_dict()
            assert ours == theirs

    def test_empty_batch(self):
        assert ProcessPoolBackend(max_workers=2).run([]) == []

    def test_make_backend(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", workers=2), ProcessPoolBackend)
        backend = SerialBackend()
        assert make_backend(backend) is backend
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("threads")
        with pytest.raises(ValueError, match="single-worker"):
            make_backend("serial", workers=4)
        with pytest.raises(ValueError, match="registry"):
            make_backend("process", resolver=lambda name, seed: FIFOScheduler())
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)

    def test_queue_dir_annotations_resolve(self):
        # The module defines every name its signatures use.
        path_like = typing.Union[str, Path]
        assert typing.get_type_hints(QueueBackend.__init__)["queue_dir"] == path_like
        assert typing.get_type_hints(make_backend)["queue_dir"] == typing.Optional[path_like]


class TestSweepArtifact:
    @pytest.fixture(scope="class")
    def sweep(self):
        return Runner().run(tiny_grid())

    def test_grid_order_and_lookup(self, sweep):
        assert [run.spec.label() for run in sweep.runs] == [
            "ONES@8g/seed7", "FIFO@8g/seed7", "ONES@8g/seed9", "FIFO@8g/seed9",
        ]
        assert sweep.get("FIFO", capacity=8, seed=9).spec.seed == 9
        with pytest.raises(KeyError):
            sweep.get("Tiresias")

    def test_mean_and_relative_tables(self, sweep):
        table = sweep.mean_metric_table("jct")
        assert set(table) == {"ONES", "FIFO"}
        assert set(table["ONES"]) == {8}
        per_seed = [sweep.get("ONES", seed=s).mean("jct") for s in (7, 9)]
        assert table["ONES"][8] == pytest.approx(sum(per_seed) / 2)
        relative = sweep.relative_to("ONES", "jct")
        assert relative["ONES"][8] == pytest.approx(1.0)
        with pytest.raises(KeyError):
            sweep.relative_to("Tiresias")

    def test_results_for_selects_each_seed(self, sweep):
        for seed in (7, 9):
            results = sweep.results_for(8, seed=seed)
            assert set(results) == {"ONES", "FIFO"}
            assert results["FIFO"] == sweep.get("FIFO", seed=seed).result
        assert sweep.results_for() == sweep.results_for(8, seed=7)

    def test_results_for_is_the_comparison_slice(self):
        sweep = Runner().run(tiny_grid(seeds=(7,)))
        results = sweep.results_for(8)
        assert set(results) == {"ONES", "FIFO"}
        assert all(result.num_gpus == 8 for result in results.values())
        assert all(len(result.completed) == 3 for result in results.values())
        ones = sweep.get("ONES", seed=7)
        assert mean_metric(results["ONES"], "jct") == pytest.approx(ones.mean("jct"))
        assert improvement_over(results["ONES"], results["FIFO"]) == pytest.approx(
            1.0 - ones.mean("jct") / sweep.get("FIFO", seed=7).mean("jct")
        )


class TestRunnerCaching:
    def test_resume_skips_cached_cells(self, tmp_path):
        spec = tiny_grid(seeds=(7,))
        runner = Runner(backend="serial", cache_dir=tmp_path / "cells")
        first = runner.run(spec)
        assert runner.stats.executed_cells == spec.num_cells
        assert runner.stats.cached_cells == 0
        # Every cell artifact landed on disk under its content key.
        for cell in spec.expand():
            assert runner.cell_path(cell).exists()
        # A resumed run executes nothing and returns identical artifacts.
        resumed = runner.run(spec, resume=True)
        assert runner.stats.executed_cells == 0
        assert runner.stats.cached_cells == spec.num_cells
        assert resumed.runs == first.runs

    def test_resume_only_runs_missing_cells(self, tmp_path):
        runner = Runner(backend="serial", cache_dir=tmp_path / "cells")
        runner.run(tiny_grid(seeds=(7,)))
        # Growing the grid re-uses the overlapping cells.
        grown = tiny_grid(seeds=(7, 9))
        result = runner.run(grown, resume=True)
        assert runner.stats.cached_cells == 2
        assert runner.stats.executed_cells == 2
        assert len(result.runs) == grown.num_cells

    def test_without_resume_cells_rerun(self, tmp_path):
        spec = tiny_grid(seeds=(7,))
        runner = Runner(backend="serial", cache_dir=tmp_path / "cells")
        runner.run(spec)
        runner.run(spec)
        assert runner.stats.executed_cells == spec.num_cells
        assert runner.stats.cached_cells == 0

    def test_changed_spec_misses_cache(self, tmp_path):
        runner = Runner(backend="serial", cache_dir=tmp_path / "cells")
        runner.run(tiny_grid(seeds=(7,)))
        changed = tiny_grid(seeds=(7,), scheduler_options={"ONES": {"population_size": 5}})
        runner.run(changed, resume=True)
        assert runner.stats.executed_cells == 1  # only the ONES cell changed
        assert runner.stats.cached_cells == 1

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        spec = tiny_grid(seeds=(7,))
        runner = Runner(backend="serial", cache_dir=tmp_path / "cells")
        runner.run(spec)
        victim = runner.cell_path(spec.expand()[0])
        victim.write_text("{not json")
        resumed = runner.run(spec, resume=True)
        assert runner.stats.executed_cells == 1
        assert runner.stats.cached_cells == 1
        assert len(resumed.runs) == spec.num_cells
        # ... and the cell was re-cached with valid content.
        assert json.loads(victim.read_text())["spec"]["scheduler"] == "ONES"

    def test_mismatched_spec_in_cache_is_ignored(self, tmp_path):
        spec = tiny_grid(seeds=(7,))
        runner = Runner(backend="serial", cache_dir=tmp_path / "cells")
        sweep = runner.run(spec)
        cells = spec.expand()
        # Masquerade: put cell B's artifact at cell A's content key.
        runner.cell_path(cells[0]).write_text(sweep.runs[1].to_json())
        runner.run(spec, resume=True)
        assert runner.stats.executed_cells == 1

    def test_no_cache_dir_never_resumes(self):
        spec = tiny_grid(seeds=(7,))
        runner = Runner(backend="serial")
        runner.run(spec, resume=True)
        assert runner.stats.executed_cells == spec.num_cells
        assert runner.cell_path(spec.expand()[0]) is None

    def test_interrupted_run_keeps_finished_cells(self, tmp_path):
        """Cells are cached as they complete, not after the whole batch."""
        from repro.experiments.registry import create_scheduler

        spec = tiny_grid(seeds=(7,))  # cells: ONES then FIFO

        def resolver(name, seed, **options):
            if name == "FIFO":
                raise RuntimeError("simulated crash mid-sweep")
            return create_scheduler(name, seed, **options)

        crashing = Runner(
            backend=SerialBackend(resolver=resolver), cache_dir=tmp_path / "cells"
        )
        with pytest.raises(RuntimeError, match="mid-sweep"):
            crashing.run(spec)
        # The completed ONES cell survived; resume only re-runs FIFO.
        runner = Runner(backend="serial", cache_dir=tmp_path / "cells")
        runner.run(spec, resume=True)
        assert runner.stats.cached_cells == 1
        assert runner.stats.executed_cells == 1

    def test_parallel_runner_with_cache_matches_serial(self, tmp_path):
        spec = tiny_grid(seeds=(7,))
        serial = Runner().run(spec)
        parallel = Runner(backend="process", workers=2, cache_dir=tmp_path / "cells").run(spec)
        assert serial.runs == parallel.runs
        # A serial resume over the pool-written cache reuses everything.
        resumed_runner = Runner(backend="serial", cache_dir=tmp_path / "cells")
        resumed = resumed_runner.run(spec, resume=True)
        assert resumed_runner.stats.executed_cells == 0
        assert resumed.runs == serial.runs

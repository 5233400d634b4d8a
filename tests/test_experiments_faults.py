"""Fault configs through the experiment layer: keys, grids, aggregation.

The cache-compatibility regression is the critical piece: a zero-fault
cell's content key must be *unchanged from PR 4* (pinned below as
literal hashes), so existing on-disk cell caches stay valid, while any
enabled fault plan must move the key.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.artifacts import SweepArtifact
from repro.experiments.orchestrator import Runner
from repro.experiments.spec import SCHEMA_VERSION, ExperimentSpec, RunSpec
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig

#: Content keys computed on the PR 4 build (before the fault subsystem
#: existed).  If either moves, every cached zero-fault cell on disk is
#: silently invalidated — that is a breaking change, not a refactor.
PR4_DEFAULT_ONES_KEY = "a4fb1415644fa9eb"
PR4_FIFO_16G_SEED7_KEY = "1841a3443dca2f4f"


def _small_trace():
    return TraceConfig(num_jobs=3, arrival_rate=0.1, convergence_patience=4)


def _fault():
    return FaultConfig(
        injections=(
            FaultInjection(60.0, FaultKind.NODE_DOWN, 0),
            FaultInjection(400.0, FaultKind.NODE_UP, 0),
        )
    )


class TestCellKeyCompatibility:
    def test_zero_fault_keys_unchanged_from_pr4(self):
        assert RunSpec(scheduler="ONES").cell_key() == PR4_DEFAULT_ONES_KEY
        assert (
            RunSpec(scheduler="FIFO", num_gpus=16, seed=7).cell_key()
            == PR4_FIFO_16G_SEED7_KEY
        )

    def test_disabled_fault_config_normalised_away(self):
        # An explicitly-disabled config is the *same cell* as no config:
        # same key, same serialized payload.
        clean = RunSpec(scheduler="ONES")
        disabled = RunSpec(
            scheduler="ONES",
            simulation=SimulationConfig(faults=FaultConfig(profile="none")),
        )
        assert disabled.simulation.faults is None
        assert disabled.cell_key() == clean.cell_key() == PR4_DEFAULT_ONES_KEY
        assert disabled.to_dict() == clean.to_dict()

    def test_enabled_fault_plan_moves_the_key(self):
        faulted = RunSpec(
            scheduler="ONES", simulation=SimulationConfig(faults=_fault())
        )
        assert faulted.cell_key() != PR4_DEFAULT_ONES_KEY
        # ...and different plans get different keys.
        other = RunSpec(
            scheduler="ONES",
            simulation=SimulationConfig(
                faults=FaultConfig(profile="mtbf", seed=1)
            ),
        )
        assert other.cell_key() != faulted.cell_key()

    def test_fault_seed_is_part_of_the_key(self):
        keys = {
            RunSpec(
                scheduler="ONES",
                simulation=SimulationConfig(
                    faults=FaultConfig(profile="mtbf", seed=seed)
                ),
            ).cell_key()
            for seed in (1, 2, 3)
        }
        assert len(keys) == 3

    def test_schema_bumped_to_v3(self):
        assert SCHEMA_VERSION == 3


class TestFaultAxis:
    def test_default_axis_expands_identically_to_pr4(self):
        spec = ExperimentSpec(schedulers=("ONES", "FIFO"), capacities=(16,))
        assert spec.faults == (None,)
        assert "faults" not in spec.to_dict()
        for cell in spec.expand():
            assert cell.faults is None

    def test_fault_axis_multiplies_cells_and_orders_clean_first(self):
        spec = ExperimentSpec(
            schedulers=("FIFO",),
            capacities=(8,),
            traces=(_small_trace(),),
            faults=(None, _fault()),
        )
        cells = spec.expand()
        assert spec.num_cells == len(cells) == 2
        assert cells[0].faults is None
        assert cells[1].faults == _fault()

    def test_axis_round_trips_through_json(self):
        spec = ExperimentSpec(
            schedulers=("FIFO",), faults=(None, FaultConfig(profile="rack", seed=5))
        )
        restored = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_disabled_axis_entries_fold_to_none(self):
        with pytest.raises(ValueError, match="duplicates"):
            ExperimentSpec(
                schedulers=("FIFO",), faults=(None, FaultConfig(profile="none"))
            )

    def test_axis_and_shared_simulation_faults_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentSpec(
                schedulers=("FIFO",),
                simulation=SimulationConfig(faults=_fault()),
                faults=(None, FaultConfig(profile="mtbf")),
            )

    def test_shared_simulation_faults_hoisted_onto_axis(self):
        # Regression: a fault config on the shared simulation used to
        # leave spec.faults == (None,) while every cell carried the
        # config, so twin-keyed aggregations missed every run.
        spec = ExperimentSpec(
            schedulers=("FIFO",),
            capacities=(8,),
            traces=(_small_trace(),),
            simulation=SimulationConfig(faults=_fault()),
        )
        assert spec.faults == (_fault(),)
        assert spec.simulation.faults is None
        cells = spec.expand()
        assert cells[0].faults == _fault()
        sweep = Runner().run(spec)
        assert sweep.get("FIFO").recovery["node_down_events"] == 1.0
        assert sweep.mean_metric_table("jct")["FIFO"][8] > 0

    def test_constructors_add_the_clean_twin(self):
        spec = ExperimentSpec.comparison(
            schedulers=("FIFO", "SRTF"), num_gpus=8, faults=FaultConfig(profile="mtbf")
        )
        assert spec.faults == (None, FaultConfig(profile="mtbf"))
        assert ExperimentSpec.comparison(schedulers=("FIFO",)).faults == (None,)


class TestRecoveryAggregation:
    @pytest.fixture(scope="class")
    def sweep(self) -> SweepArtifact:
        spec = ExperimentSpec(
            schedulers=("FIFO", "SRTF"),
            capacities=(8,),
            seeds=(7,),
            traces=(_small_trace(),),
            faults=(None, _fault()),
        )
        return Runner().run(spec)

    def test_index_separates_twins(self, sweep):
        clean = sweep.get("FIFO", fault_index=0)
        faulted = sweep.get("FIFO", fault_index=1)
        assert clean.spec.faults is None
        assert faulted.spec.faults == _fault()
        assert clean.recovery == {}
        assert faulted.recovery["node_down_events"] == 1.0

    def test_mean_table_defaults_to_clean_slice(self, sweep):
        table = sweep.mean_metric_table("jct")
        clean = sweep.get("FIFO", fault_index=0)
        assert table["FIFO"][8] == pytest.approx(clean.mean("jct"))

    def test_fault_degradation_vs_twin(self, sweep):
        degradation = sweep.fault_degradation("jct")
        assert set(degradation) == {"FIFO", "SRTF"}
        for ratio in degradation.values():
            assert ratio > 0

    def test_recovery_table_rows(self, sweep):
        rows = sweep.recovery_table()
        assert len(rows) == 2
        for row in rows:
            assert "goodput" in row and "evictions" in row

    def test_artifact_round_trip_preserves_recovery(self, sweep):
        restored = SweepArtifact.from_json(sweep.to_json())
        assert restored.get("FIFO", fault_index=1).recovery == sweep.get(
            "FIFO", fault_index=1
        ).recovery

    def test_faulted_cells_cache_and_resume(self, tmp_path, sweep):
        spec = sweep.spec
        runner = Runner(cache_dir=tmp_path)
        runner.run(spec)
        assert runner.stats.executed_cells == 4
        resumed = Runner(cache_dir=tmp_path)
        resweep = resumed.run(spec, resume=True)
        assert resumed.stats.cached_cells == 4
        assert resumed.stats.executed_cells == 0
        assert resweep.to_json() == sweep.to_json()

    def test_results_for_slices_by_fault(self, sweep):
        clean = sweep.results_for(8, fault_index=0)
        faulted = sweep.results_for(8, fault_index=1)
        assert set(clean) == {"FIFO", "SRTF"}
        assert clean["FIFO"].faults == {}
        assert faulted["FIFO"].faults["node_down_events"] == 1.0


class TestProcessPoolParityUnderFaults:
    def test_pool_artifacts_bit_identical_to_serial(self):
        spec = ExperimentSpec(
            schedulers=("FIFO", "Tiresias"),
            capacities=(8,),
            seeds=(7,),
            traces=(_small_trace(),),
            faults=(None, FaultConfig(profile="mtbf", seed=3, mtbf_hours=0.2,
                                      repair_minutes=5)),
        )
        serial = Runner(backend="serial").run(spec)
        pooled = Runner(backend="process", workers=2).run(spec)
        assert serial.to_json() == pooled.to_json()

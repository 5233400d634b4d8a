"""Tests for declarative experiment specs (repro.experiments.spec)."""

import json

import pytest

from repro.experiments.spec import ExperimentSpec, RunSpec
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig

TINY_TRACE = TraceConfig(num_jobs=3, arrival_rate=1.0 / 10.0, convergence_patience=3)


class TestRunSpec:
    def test_defaults_match_paper_setup(self):
        spec = RunSpec(scheduler="ONES")
        assert spec.num_gpus == 64
        assert spec.seed == 2021
        assert spec.trace.num_jobs == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            RunSpec(scheduler="")
        with pytest.raises(ValueError):
            RunSpec(scheduler="ONES", num_gpus=0)
        with pytest.raises(ValueError):
            RunSpec(scheduler="ONES", seed=0)

    def test_json_round_trip(self):
        spec = RunSpec(
            scheduler="ONES",
            num_gpus=8,
            seed=7,
            trace=TINY_TRACE,
            simulation=SimulationConfig(max_time=24 * 3600.0),
            scheduler_options={"population_size": 4},
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        restored = RunSpec.from_dict(payload)
        assert restored == spec
        assert restored.cell_key() == spec.cell_key()

    def test_cell_key_sensitive_to_every_axis(self):
        base = RunSpec(scheduler="ONES", num_gpus=8, seed=7, trace=TINY_TRACE)
        variants = [
            RunSpec(scheduler="FIFO", num_gpus=8, seed=7, trace=TINY_TRACE),
            RunSpec(scheduler="ONES", num_gpus=16, seed=7, trace=TINY_TRACE),
            RunSpec(scheduler="ONES", num_gpus=8, seed=8, trace=TINY_TRACE),
            RunSpec(scheduler="ONES", num_gpus=8, seed=7,
                    trace=TraceConfig(num_jobs=4, arrival_rate=1.0 / 10.0)),
            RunSpec(scheduler="ONES", num_gpus=8, seed=7, trace=TINY_TRACE,
                    simulation=SimulationConfig(max_time=3600.0)),
            RunSpec(scheduler="ONES", num_gpus=8, seed=7, trace=TINY_TRACE,
                    scheduler_options={"population_size": 4}),
        ]
        keys = {base.cell_key()} | {v.cell_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_cell_key_independent_of_option_order(self):
        a = RunSpec(scheduler="ONES", scheduler_options={"a": 1, "b": 2})
        b = RunSpec(scheduler="ONES", scheduler_options={"b": 2, "a": 1})
        assert a.cell_key() == b.cell_key()

    def test_label(self):
        assert RunSpec(scheduler="ONES", num_gpus=8, seed=7).label() == "ONES@8g/seed7"


class TestExperimentSpec:
    def make(self, **overrides):
        defaults = dict(
            schedulers=("ONES", "FIFO"),
            capacities=(8, 16),
            seeds=(7, 9),
            traces=(TINY_TRACE,),
            simulation=SimulationConfig(max_time=24 * 3600.0),
            scheduler_options={"ONES": {"population_size": 4}},
        )
        defaults.update(overrides)
        return ExperimentSpec(**defaults)

    def test_expand_full_grid_in_order(self):
        spec = self.make()
        cells = spec.expand()
        assert len(cells) == spec.num_cells == 2 * 2 * 2
        # Inner-to-outer order: schedulers, seeds, capacities, traces.
        assert [c.label() for c in cells[:4]] == [
            "ONES@8g/seed7", "FIFO@8g/seed7", "ONES@8g/seed9", "FIFO@8g/seed9",
        ]
        assert all(c.num_gpus == 16 for c in cells[4:])

    def test_expand_applies_per_scheduler_options(self):
        cells = self.make().expand()
        for cell in cells:
            if cell.scheduler == "ONES":
                assert cell.scheduler_options == {"population_size": 4}
            else:
                assert cell.scheduler_options == {}

    def test_cell_keys_unique(self):
        cells = self.make().expand()
        assert len({c.cell_key() for c in cells}) == len(cells)

    def test_lists_coerced_to_tuples(self):
        spec = ExperimentSpec(schedulers=["ONES"], capacities=[8], seeds=[1],
                              traces=[TINY_TRACE])
        assert spec.schedulers == ("ONES",)
        assert spec.capacities == (8,)

    def test_validation(self):
        with pytest.raises(ValueError, match="schedulers"):
            self.make(schedulers=())
        with pytest.raises(ValueError, match="duplicates"):
            self.make(schedulers=("ONES", "ONES"))
        with pytest.raises(ValueError, match="not in the grid"):
            self.make(scheduler_options={"Tiresias": {}})

    def test_convenience_constructors(self):
        comparison = ExperimentSpec.comparison(num_gpus=32, seed=5)
        assert comparison.schedulers == ("ONES", "DRL", "Tiresias", "Optimus")
        assert comparison.capacities == (32,)
        assert comparison.seeds == (5,)
        assert comparison.num_cells == 4

"""Tests for the one experiment API: ``simulate_trace`` and spec -> Runner -> metrics.

A single bare run is :func:`repro.experiments.backends.simulate_trace`; a
comparison or sweep is an :class:`~repro.experiments.spec.ExperimentSpec`
run by the :class:`~repro.experiments.orchestrator.Runner`, whose
:class:`~repro.experiments.artifacts.SweepArtifact` slices are read
through :mod:`repro.analysis.metrics`.
"""

import pytest

from repro.analysis.metrics import improvement_over, mean_metric, relative_jct
from repro.baselines.fifo import FIFOScheduler
from repro.experiments.backends import simulate_trace
from repro.experiments.orchestrator import Runner
from repro.experiments.spec import ExperimentSpec
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator

TRACE = TraceConfig(num_jobs=4, arrival_rate=1.0 / 10.0, convergence_patience=3)
SIMULATION = SimulationConfig(max_time=24 * 3600.0)
#: Cheap scheduler pair used to keep these tests quick.
FAST = dict(
    schedulers=("ONES", "Tiresias"),
    trace=TRACE,
    simulation=SIMULATION,
    scheduler_options={"ONES": {"population_size": 4}},
)


@pytest.fixture(scope="module")
def comparison():
    return Runner().run(ExperimentSpec.comparison(num_gpus=8, seed=9, **FAST))


class TestRunner:
    def test_trace_is_deterministic(self):
        a = TraceGenerator(TRACE, seed=9).generate()
        b = TraceGenerator(TRACE, seed=9).generate()
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert [j.task for j in a] == [j.task for j in b]

    def test_simulate_trace(self):
        trace = TraceGenerator(TRACE, seed=9).generate()
        result = simulate_trace(FIFOScheduler(), trace, 8, SIMULATION)
        assert result.scheduler_name == "FIFO"
        assert result.num_gpus == 8
        assert len(result.completed) == len(trace)

    def test_comparison_shares_trace(self, comparison):
        results = comparison.results_for(8)
        assert set(results) == {"ONES", "Tiresias"}
        trace = TraceGenerator(TRACE, seed=9).generate()
        for result in results.values():
            assert set(result.completed) == {j.job_id for j in trace}

    def test_comparison_averages_and_improvements(self, comparison):
        results = comparison.results_for(8)
        averages = {name: mean_metric(result, "jct") for name, result in results.items()}
        assert set(averages) == {"ONES", "Tiresias"}
        improvement = improvement_over(results["ONES"], results["Tiresias"])
        assert improvement == pytest.approx(1.0 - averages["ONES"] / averages["Tiresias"])
        relative = relative_jct(results, "ONES")
        assert relative["ONES"] == pytest.approx(1.0)

    def test_improvements_unknown_reference(self, comparison):
        with pytest.raises(KeyError):
            relative_jct(comparison.results_for(8), "SLAQ")

    def test_scalability_sweep(self):
        spec = ExperimentSpec(
            schedulers=FAST["schedulers"],
            capacities=(8, 16),
            seeds=(9,),
            traces=(TRACE,),
            simulation=SIMULATION,
            scheduler_options=FAST["scheduler_options"],
        )
        sweep = Runner().run(spec)
        for capacity in (8, 16):
            results = sweep.results_for(capacity)
            assert set(results) == {"ONES", "Tiresias"}
            for result in results.values():
                assert result.num_gpus == capacity


class TestOptionAxis:
    """An option axis adds cells only where an overlay changes a scheduler."""

    OVERLAYS = ({"Gandiva": {"time_quantum": 60.0}}, {"Gandiva": {"time_quantum": 900.0}})

    def _spec(self):
        # Four GPUs for eight 2-GPU jobs: Gandiva's time slices decide who runs.
        crowded = TraceConfig(
            num_jobs=8,
            arrival_rate=1.0 / 5.0,
            gpu_request_choices=(2,),
            gpu_request_weights=(1.0,),
            convergence_patience=3,
        )
        return ExperimentSpec(
            schedulers=("FIFO", "Gandiva"),
            capacities=(4,),
            seeds=(9,),
            traces=(crowded,),
            simulation=SIMULATION,
            option_axis=self.OVERLAYS,
        )

    def test_grid_expands_into_distinct_cells(self):
        spec = self._spec()
        cells = spec.expand()
        assert [cell.scheduler for cell in cells] == ["FIFO", "Gandiva", "Gandiva"]
        assert len({cell.cell_key() for cell in cells}) == spec.num_cells == 3

    def test_tables_select_each_overlay(self):
        sweep = Runner().run(self._spec())
        rows = ["FIFO", "Gandiva[time_quantum=60.0]", "Gandiva[time_quantum=900.0]"]
        assert [label for label, _, _ in sweep.series()] == rows
        own = [sweep.get("FIFO").mean("jct")] + [
            sweep.get("Gandiva", option_index=k).mean("jct") for k in (0, 1)
        ]
        assert own[1] != own[2]
        table = sweep.mean_metric_table("jct")
        assert [table[label][4] for label in rows] == own
        relative = sweep.relative_to("FIFO", "jct")
        assert [relative[label][4] for label in rows] == [value / own[0] for value in own]
        assert list(sweep.results_for()) == rows

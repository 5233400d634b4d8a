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
from repro.experiments.orchestrator import run_experiment
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
    return run_experiment(ExperimentSpec.comparison(num_gpus=8, seed=9, **FAST))


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
        sweep = run_experiment(ExperimentSpec.scalability(capacities=(8, 16), seeds=(9,), **FAST))
        for capacity in (8, 16):
            results = sweep.results_for(capacity)
            assert set(results) == {"ONES", "Tiresias"}
            for result in results.values():
                assert result.num_gpus == capacity

"""Shape checks for every figure/table.

The analytic figures come from :mod:`repro.experiments.figures`; the
Fig. 15 comparison is a small grid run by the Runner.
"""

import numpy as np

from repro.analysis.metrics import mean_metric
from repro.experiments import figures
from repro.experiments.orchestrator import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig


class TestFigure2:
    def test_elastic_dominates_fixed_at_scale(self):
        data = figures.figure2_throughput_scaling()
        assert len(data["workers"]) == 8
        assert data["elastic_batch"][-1] > data["fixed_batch"][-1]
        # Fixed-batch curve saturates: its best point is not the last one.
        assert np.argmax(data["fixed_batch"]) < len(data["fixed_batch"]) - 1


class TestFigure3:
    def test_more_gpus_converge_slower(self):
        data = figures.figure3_convergence_vs_gpus(epochs=120)
        assert data["1_gpus"][60] > data["8_gpus"][60]
        for key in ("1_gpus", "2_gpus", "4_gpus", "8_gpus"):
            assert np.all(np.diff(data[key]) >= -1e-12)


class TestFigure13And14:
    def test_abrupt_scaling_spikes_loss(self):
        data = figures.figure13_abrupt_scaling()
        switch = int(data["switch_epoch"][0])
        assert data["scaled_batch"][switch] > data["fixed_batch"][switch]
        assert data["scaled_batch"][switch] > data["scaled_batch"][switch - 1]

    def test_gradual_scaling_stays_smooth(self):
        data = figures.figure14_gradual_scaling()
        assert np.max(np.diff(data["loss"])) < 0.05
        assert len(data["loss"]) == sum(e for _, e in ((256, 30), (1024, 30), (4096, 30)))


class TestTables:
    def test_table2_counts(self):
        summary = figures.table2_workload_catalog()
        assert summary["total"] == 50

    def test_table3_matches_paper(self):
        rows = {row["Scheduler"]: row for row in figures.table3_capabilities()}
        assert rows["ONES"]["Elastic Batch Size"] == "Y"
        assert rows["DRL"]["Allow Preemption"] == "N"
        assert rows["Tiresias"]["Elastic Job Size"] == "N"
        assert rows["Optimus"]["Greedy/Dynamic Strategy"] == "Greedy"


class TestFigure16:
    def test_checkpoint_dwarfs_elastic(self):
        table = figures.figure16_overheads()
        assert len(table) == 7
        for model, row in table.items():
            assert row["checkpoint"] > row["elastic"], model


class TestFigure15SmallScale:
    def test_ones_wins_on_average_jct(self):
        spec = ExperimentSpec.comparison(
            schedulers=("ONES", "Tiresias"),
            num_gpus=8,
            seed=21,
            trace=TraceConfig(num_jobs=5, arrival_rate=1.0 / 10.0, convergence_patience=3),
            simulation=SimulationConfig(max_time=24 * 3600.0),
            scheduler_options={"ONES": {"population_size": 4}},
        )
        results = run_experiment(spec).results_for()
        averages = {name: mean_metric(result, "jct") for name, result in results.items()}
        assert averages["ONES"] <= averages["Tiresias"]

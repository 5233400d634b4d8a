"""Tests for repro.experiments.report."""

import pytest

from repro.experiments.artifacts import SweepArtifact, dead_cell_artifact
from repro.experiments.backends import execute_run
from repro.experiments.orchestrator import Runner, run_experiment
from repro.experiments.report import (
    build_comparison_report,
    build_sweep_report,
    write_comparison_report,
)
from repro.experiments.spec import ExperimentSpec
from repro.faults.config import FaultConfig
from repro.workload.trace import TraceConfig


@pytest.fixture(scope="module")
def comparison():
    spec = ExperimentSpec.comparison(
        schedulers=("FIFO", "Tiresias"),
        num_gpus=8,
        seed=11,
        trace=TraceConfig(num_jobs=4, arrival_rate=1.0 / 10.0, convergence_patience=3),
    )
    return run_experiment(spec)


class TestBuildReport:
    def test_contains_all_sections(self, comparison):
        report = build_comparison_report(comparison, reference="FIFO")
        assert report.startswith("# Scheduler comparison report")
        assert "## Average metrics" in report
        assert "## JCT distribution" in report
        assert "## FIFO vs the baselines" in report
        assert "## Cluster telemetry" in report

    def test_lists_every_scheduler(self, comparison):
        report = build_comparison_report(comparison, reference="FIFO")
        assert "FIFO" in report and "Tiresias" in report

    def test_reference_missing_skips_comparison_section(self, comparison):
        report = build_comparison_report(comparison, reference="ONES")
        assert "## ONES vs the baselines" not in report
        assert "## Average metrics" in report

    def test_same_text_after_json_round_trip(self, comparison):
        restored = SweepArtifact.from_json(comparison.to_json())
        assert build_comparison_report(restored) == build_comparison_report(comparison)

    def test_markdown_tables_are_well_formed(self, comparison):
        report = build_comparison_report(comparison, reference="FIFO")
        table_lines = [l for l in report.splitlines() if l.startswith("|")]
        assert table_lines
        # Every table row has the same number of columns as its header.
        assert all(line.count("|") >= 3 for line in table_lines)


class TestWriteReport:
    def test_writes_file(self, comparison, tmp_path):
        path = write_comparison_report(comparison, tmp_path / "report.md", reference="FIFO")
        assert path.exists()
        assert path.read_text().startswith("# Scheduler comparison report")


class TestSweepReportRecoverySections:
    @pytest.fixture(scope="class")
    def faulted_sweep(self):
        spec = ExperimentSpec.scalability(
            capacities=(8,),
            seeds=(11,),
            schedulers=("FIFO", "Tiresias"),
            trace=TraceConfig(num_jobs=4, arrival_rate=1.0 / 10.0,
                              convergence_patience=3),
            faults=FaultConfig(profile="mtbf", mtbf_hours=0.2,
                               repair_minutes=5.0, seed=3),
        )
        return Runner(backend="serial").run(spec)

    def test_fault_recovery_section_present(self, faulted_sweep):
        report = build_sweep_report(faulted_sweep, reference="FIFO")
        assert "## Fault recovery" in report
        assert "JCT degradation vs the zero-fault twin cells" in report
        # The per-cell recovery metrics of PR 5 are surfaced.
        for column in ("goodput", "evictions", "restarts", "lost GPU-s",
                       "downtime GPU-s"):
            assert column in report

    def test_zero_fault_sweep_has_no_recovery_section(self):
        spec = ExperimentSpec(
            schedulers=("FIFO",),
            capacities=(8,),
            seeds=(11,),
            traces=(TraceConfig(num_jobs=3, arrival_rate=0.1,
                                convergence_patience=3),),
        )
        report = build_sweep_report(Runner(backend="serial").run(spec))
        assert "## Fault recovery" not in report
        assert "## Dead cells" not in report

    def test_dead_cells_section_and_skipped_ratio_table(self):
        spec = ExperimentSpec(
            schedulers=("FIFO", "SRTF"),
            capacities=(8,),
            seeds=(11,),
            traces=(TraceConfig(num_jobs=3, arrival_rate=0.1,
                                convergence_patience=3),),
        )
        cells = spec.expand()
        sweep = SweepArtifact(
            spec=spec,
            runs=[execute_run(cells[0]),
                  dead_cell_artifact(cells[1], "RuntimeError: poisoned")],
        )
        report = build_sweep_report(sweep, reference="FIFO")
        assert "## Dead cells" in report
        assert "poisoned" in report
        # The reference-relative table divides by per-cell means, which a
        # dead placeholder cannot provide — it must be skipped, not crash.
        assert "Relative JCT" not in report

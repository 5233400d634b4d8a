"""Tests for repro.analysis.export."""

import csv
import json

import pytest

from repro.analysis.export import (
    export_comparison_csv,
    export_comparison_json,
    export_result_csv,
    export_result_json,
    export_sweep_json,
    result_to_records,
)
from repro.baselines.fifo import FIFOScheduler
from repro.experiments.backends import simulate_trace
from repro.experiments.orchestrator import run_experiment
from repro.experiments.spec import ExperimentSpec
from repro.workload.trace import TraceConfig, TraceGenerator

TRACE = TraceConfig(num_jobs=4, arrival_rate=1.0 / 10.0, convergence_patience=3)


@pytest.fixture(scope="module")
def result():
    """One in-process run, which still carries its live ``Job`` objects."""
    return simulate_trace(FIFOScheduler(), TraceGenerator(TRACE, seed=5).generate(), 8)


@pytest.fixture(scope="module")
def comparison():
    spec = ExperimentSpec.comparison(
        schedulers=("FIFO", "Tiresias"), num_gpus=8, seed=5, trace=TRACE
    )
    return run_experiment(spec)


class TestResultExport:
    def test_records_have_job_metadata(self, result):
        records = result_to_records(result)
        assert len(records) == len(result.completed)
        for record in records:
            assert record["scheduler"] == "FIFO"
            assert record["jct"] > 0
            assert "model" in record and "task" in record

    def test_csv_round_trip(self, result, tmp_path):
        path = export_result_csv(result, tmp_path / "fifo.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.completed)
        assert float(rows[0]["jct"]) > 0

    def test_json_round_trip(self, result, tmp_path):
        path = export_result_json(result, tmp_path / "fifo.json")
        payload = json.loads(path.read_text())
        assert payload["summary"]["scheduler"] == "FIFO"
        assert len(payload["jobs"]) == len(result.completed)
        assert payload["incomplete"] == []


class TestComparisonExport:
    def test_comparison_csv_contains_all_schedulers(self, comparison, tmp_path):
        path = export_comparison_csv(comparison, tmp_path / "cmp.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        schedulers = {row["scheduler"] for row in rows}
        assert schedulers == {"FIFO", "Tiresias"}

    def test_comparison_json_structure(self, comparison, tmp_path):
        path = export_comparison_json(comparison, tmp_path / "cmp.json")
        payload = json.loads(path.read_text())
        assert set(payload["averages"]) == {"jct", "execution_time", "queuing_time"}
        assert set(payload["summaries"]) == {"FIFO", "Tiresias"}

    def test_sweep_json(self, tmp_path):
        spec = ExperimentSpec.scalability(
            schedulers=("FIFO",),
            capacities=(8,),
            seeds=(6,),
            trace=TraceConfig(num_jobs=3, arrival_rate=1.0 / 10.0, convergence_patience=3),
        )
        path = export_sweep_json(run_experiment(spec), tmp_path / "sweep.json")
        payload = json.loads(path.read_text())
        assert "8" in payload
        assert "averages_jct" in payload["8"]

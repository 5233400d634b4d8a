"""Self-tests of the benchmark on shortened workloads.

Run with ``python3 perfbench/selftest.py`` (or ``python3 -m pytest
perfbench/selftest.py``).  Each workload runs at a fifth of its size with
one repetition, untraced and traced, and the tests check that

* every metric named in ``BENCHMARK.json`` is emitted with its unit,
* the accounting checks pass, and a failed check fails the command,
* the per-layer self times sum to within 5% of the traced wall time, every
  wrap target exists in the program, and the layers that do a workload's
  work read above 0 on it (and the layers it never runs read 0),
* two seeds give different inputs and one seed always the same inputs,
* the speed probe samples while active, keeps its own time out of the
  clock, and does not change what the program does,
* without the program's source the command fails and prints no result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402  (stdlib-only at import time)

workloads.pin_threads()
SCALE = "0.2"


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


WORKLOADS = [entry["name"] for entry in _spec()["workloads"]]

#: Per workload, counters of the layers that do its work (README: "most
#: work in") and of layers it never runs ("none in").  Self times always
#: add up to the traced wall time, so these are what shows a lost wrapper.
BUSY = {
    "ones-paper-64": ("core.callbacks", "core.generations", "prediction.refits",
                      "jobs.tables_built"),
    "hier-faults-256": ("core.hier_callbacks", "core.generations", "sim.views_built",
                        "faults.events"),
    "service-fifo-64": ("service.submits", "baselines.callbacks", "cluster.validates"),
}
IDLE = {
    "ones-paper-64": ("core.hier_callbacks", "faults.events", "service.submits",
                      "baselines.callbacks"),
    "hier-faults-256": ("service.submits", "baselines.callbacks"),
    "service-fifo-64": ("core.callbacks", "core.generations", "prediction.refits",
                        "core.hier_callbacks", "faults.events"),
}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def runs():
    """(stdout, result) of an untraced and a traced short run per workload."""
    out = {}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            done = _run("--workload", name, "--seed", "2", "--seconds", "1",
                        "--trace", trace, "--scale", SCALE)
            assert done.returncode == 0, done.stderr
            out[name, trace] = done.stdout, json.loads(done.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, name):
    spec = _spec()
    for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
        _, result = runs[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        expected = {metric["name"]: metric["unit"] for metric in spec[table]}
        emitted = {key: value["unit"] for key, value in result["metrics"].items()}
        assert emitted == expected
        assert all(
            isinstance(value["value"], (int, float)) for value in result["metrics"].values()
        )
    for metric in spec["end_to_end"]:
        assert runs[name, "0"][1]["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_accounting_checks_pass(runs, name):
    for trace in ("0", "1"):
        stdout, result = runs[name, trace]
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        assert "checks passed" in stdout


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_self_times_sum_to_traced_wall_time(runs, name):
    stdout, result = runs[name, "1"]
    traced_wall = float(re.search(r"traced .*?wall_s=([0-9.]+)", stdout).group(1))
    self_times = sum(
        value["value"]
        for key, value in result["metrics"].items()
        if key.endswith("_s") and not key.startswith("repro.")
    )
    assert abs(self_times / traced_wall - 1.0) <= 0.05
    coverage = result["metrics"]["bench.layer_coverage"]["value"]
    assert 0.95 <= coverage <= 1.05


def test_every_wrap_target_exists():
    import importlib

    import tracing

    missing = []
    for module_name, path, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{path}")
    assert missing == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_layers_doing_the_work_are_traced(runs, name):
    stdout, result = runs[name, "1"]
    assert "not wrapped" not in stdout
    layers = {key: value["value"] for key, value in result["metrics"].items()}
    assert {key: layers[key] for key in BUSY[name] if layers[key] <= 0} == {}
    assert {key: layers[key] for key in IDLE[name] if layers[key] != 0} == {}


@pytest.mark.parametrize("name", WORKLOADS)
def test_seeds_give_different_inputs(name):
    generate = workloads.WORKLOADS[name].generate
    digest = workloads.inputs_digest
    assert digest(generate(1, 0.2)) == digest(generate(1, 0.2))
    assert digest(generate(1, 0.2)) != digest(generate(2, 0.2))


@pytest.mark.parametrize("name", WORKLOADS)
def test_the_speed_probe_changes_no_result(name):
    import time

    from rep import SpeedProbe

    workload = workloads.WORKLOADS[name]
    inputs = workload.generate(2, 0.2)
    plain = workload.drive(workload.build(inputs), [], time.perf_counter)
    with SpeedProbe() as probe:
        start, begin = probe.clock(), time.perf_counter()
        probed = workload.drive(workload.build(inputs), [], probe.clock)
        clocked, elapsed = probe.clock() - start, time.perf_counter() - begin
    assert workloads.trajectory_hash(probed.result) == workloads.trajectory_hash(plain.result)
    assert len(probe.samples) >= 1 and probe.speed() > 0
    assert abs(elapsed - probe.spent - clocked) < 1e-3


def test_a_failed_check_fails_the_command(monkeypatch, capsys):
    import run

    done = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", WORKLOADS[0], "--seed", "2",
         "--scale", SCALE],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["checks_failed"] = ["injected failure"]
    monkeypatch.setattr(run, "repetition", lambda *args, **kwargs: report)
    assert run.main(["--workload", WORKLOADS[0], "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == report["decisions"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))

"""Declared dependencies and the cold-start import budget.

Every third-party module the package or its tests import must be declared
in ``pyproject.toml``, and a fresh process imports only what its run
executes: building a ONES simulator loads no ``scipy.stats`` and its run
loads nothing new, and a FIFO service never loads ONES's search, the
predictor, scipy or the asyncio transport.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")


def _requirement_modules(requirements) -> set:
    """Import names of requirement strings (``"scipy>=1.9"`` -> ``"scipy"``)."""
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in requirements
    }


def _imported_modules(path: Path) -> set:
    """Top-level names of every absolute import in ``path``, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def _undeclared(paths, allowed: set) -> dict:
    found = {}
    for path in paths:
        extra = _imported_modules(path) - allowed - set(sys.stdlib_module_names)
        if extra:
            found[str(path.relative_to(ROOT))] = sorted(extra)
    return found


class TestDeclaredDependencies:
    @pytest.fixture(scope="class")
    def project(self):
        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as handle:
            return tomllib.load(handle)["project"]

    def test_package_imports_only_declared_dependencies(self, project):
        allowed = _requirement_modules(project["dependencies"]) | {"repro"}
        assert _undeclared(sorted((ROOT / "src" / "repro").rglob("*.py")), allowed) == {}

    def test_tests_import_only_declared_dependencies(self, project):
        tests = sorted((ROOT / "tests").glob("*.py"))
        allowed = (
            _requirement_modules(project["dependencies"])
            | _requirement_modules(project["optional-dependencies"]["test"])
            | {"repro", "tests"}
            | {path.stem for path in tests}
        )
        assert _undeclared(tests, allowed) == {}


def _run_fresh(snippet: str) -> dict:
    """Run ``snippet`` in a fresh interpreter with networkx unimportable."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    code = 'import sys\nsys.modules["networkx"] = None\n' + snippet
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


_ONES_COLD_START = """
import json
import repro.cli
from repro.cluster.topology import make_longhorn_cluster
from repro.experiments.registry import create_scheduler
from repro.sim.simulator import ClusterSimulator
from repro.workload.trace import TraceConfig, TraceGenerator

def loaded():
    return {name for name in sys.modules if name.split(".")[0] in ("scipy", "repro")}

trace = TraceGenerator(TraceConfig(num_jobs=8), seed=3).generate()
scheduler = create_scheduler("ONES", 1)
simulator = ClusterSimulator(make_longhorn_cluster(64), scheduler, trace)
built = loaded()
result = simulator.run()
print(json.dumps({
    "stats_at_build": "scipy.stats" in built,
    "loaded_by_run": sorted(loaded() - built),
    "completed": len(result.completed),
    "fits": scheduler.describe_state()["predictor_fits"],
}))
"""

_FIFO_SERVICE = """
import json
from repro.service.engine import SchedulerService
from repro.service.schemas import JobSubmission, ServiceConfig

service = SchedulerService(ServiceConfig(num_gpus=64, scheduler="FIFO", seed=1, mode="virtual"))
decision = service.submit(JobSubmission(tenant="default", replicas=2))
heavy = ("scipy", "asyncio", "repro.core", "repro.prediction")
print(json.dumps({
    "status": decision.status,
    "heavy": sorted(
        name for name in sys.modules
        if any(name == top or name.startswith(top + ".") for top in heavy)
    ),
}))
"""


class TestImportBudget:
    def test_ones_simulator_loads_no_scipy_stats_and_its_run_imports_nothing(self):
        report = _run_fresh(_ONES_COLD_START)
        assert report["stats_at_build"] is False
        # The run refits the GPR, so a scipy import deferred into the first
        # refit (or a repro layer first imported mid-run) would show here.
        assert report["completed"] == 8 and report["fits"] >= 1
        assert report["loaded_by_run"] == []

    def test_fifo_service_loads_no_search_predictor_scipy_or_asyncio(self):
        report = _run_fresh(_FIFO_SERVICE)
        assert report["status"] == "placed"
        assert report["heavy"] == []

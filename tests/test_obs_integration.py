"""Observability integration: tracing is invisible to simulation outputs.

The determinism contract has two halves, both pinned here:

* a traced run is **bit-identical** in its simulation outputs to an
  untraced run (the recorder never consumes RNG state or touches the
  virtual clock), and
* two identical traced runs export **byte-identical** trace files
  (record ordering is deterministic in virtual time).

Plus the content checks from the acceptance list — a hierarchical run
emits reconfig decisions, per-shard generations, and reconciler
assignments — and the ``SimProfile`` stable-key round-trip.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.core.partitioned import HierarchicalConfig, HierarchicalONESScheduler
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind
from repro.obs.trace import TraceRecorder, install_tracer, uninstall_tracer
from repro.sim.profiling import SimProfile
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator

warnings.filterwarnings("ignore", message="Covariance of the parameters")

SEED = 2021


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


def _trace(num_jobs=6, seed=17):
    config = TraceConfig(
        num_jobs=num_jobs, arrival_rate=1.0 / 20.0, convergence_patience=3
    )
    return TraceGenerator(config, seed=seed).generate()


def _faults():
    return FaultConfig(
        injections=(
            FaultInjection(60.0, FaultKind.NODE_DOWN, 1),
            FaultInjection(150.0, FaultKind.NODE_UP, 1),
        )
    )


def _ones():
    return ONESScheduler(
        ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=SEED
    )


def _hier(partitions=2):
    return HierarchicalONESScheduler(
        HierarchicalConfig(
            partitions=partitions,
            ones=ONESConfig(evolution=EvolutionConfig(population_size=4)),
        ),
        seed=SEED,
    )


def _run(scheduler, faults=None, collect_profile=False, num_gpus=16):
    simulator = ClusterSimulator(
        make_longhorn_cluster(num_gpus),
        scheduler,
        _trace(),
        config=SimulationConfig(faults=faults, collect_profile=collect_profile),
    )
    return simulator.run()


def _payload(result):
    payload = result.to_dict()
    payload.pop("profile", None)  # wall-clock, host-specific by design
    return json.dumps(payload, sort_keys=True)


class TestBitIdentity:
    def test_traced_run_matches_untraced_run(self):
        baseline = _payload(_run(_ones(), faults=_faults()))
        install_tracer(TraceRecorder())
        traced = _payload(_run(_ones(), faults=_faults()))
        assert traced == baseline

    def test_dormant_recorder_also_invisible(self):
        baseline = _payload(_run(_ones()))
        install_tracer(TraceRecorder(enabled=False))
        assert _payload(_run(_ones())) == baseline

    def test_two_traced_runs_export_identical_bytes(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            tracer = install_tracer(TraceRecorder())
            _run(_hier(), faults=_faults())
            path = tmp_path / f"{name}.jsonl"
            tracer.export_jsonl(str(path))
            uninstall_tracer()
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0


class TestTraceContent:
    @pytest.fixture(scope="class")
    def hier_records(self):
        uninstall_tracer()
        tracer = install_tracer(TraceRecorder())
        _run(_hier(), faults=_faults())
        uninstall_tracer()
        return tracer.records()

    def test_reconfig_decisions_recorded_with_scores(self, hier_records):
        decisions = [r for r in hier_records if r["name"] == "reconfig_decision"]
        assert decisions
        for record in decisions:
            attrs = record["attrs"]
            assert isinstance(attrs["score"], float)
            # The search adapts its population to the active-job count,
            # so the trace records whatever size that evolution used.
            assert attrs["population_size"] >= 1
            assert attrs["generations"] >= 1
            assert isinstance(attrs["deployed"], bool)

    def test_per_shard_generations_recorded(self, hier_records):
        generations = [r for r in hier_records if r["name"] == "generation"]
        shards = {r["attrs"]["shard"] for r in generations}
        assert shards >= {"p0", "p1"}
        # Generation numbers count up within each shard.
        for shard in sorted(shards):
            numbers = [
                r["attrs"]["generation"] for r in generations
                if r["attrs"]["shard"] == shard
            ]
            assert numbers == sorted(numbers)

    def test_reconciler_assignments_recorded(self, hier_records):
        assigns = [r for r in hier_records if r["name"] == "assign"]
        assert assigns
        assert all(r["cat"] == "reconciler" for r in assigns)
        assert all("job" in r["attrs"] and "partition" in r["attrs"] for r in assigns)

    def test_fault_events_recorded(self, hier_records):
        names = {r["name"] for r in hier_records if r["cat"] == "fault"}
        assert "node_down" in names
        assert "node_up" in names

    def test_kernel_spans_wrap_scheduler_records(self, hier_records):
        spans = [
            r for r in hier_records
            if r["cat"] == "kernel" and r["name"].startswith("event:")
        ]
        assert spans
        span_seqs = {r["seq"] for r in spans}
        evolves = [r for r in hier_records if r["name"] == "evolve"]
        assert evolves
        assert all(r["parent"] in span_seqs for r in evolves)

    def test_timestamps_are_virtual_and_monotonic(self, hier_records):
        times = [r["t"] for r in hier_records]
        assert times == sorted(times)
        assert times[-1] < 1e9  # virtual seconds, not a wall-clock epoch


class TestSimProfileRoundTrip:
    """Satellite: stable string keys for handler_seconds, and from_dict."""

    def test_profile_keys_are_stable_strings(self):
        profile = _run(_ones(), faults=_faults(), collect_profile=True).profile
        assert profile
        for key in profile:
            assert "EventKind." not in key
            assert key == key.lower()
        assert "handler_job_arrival_seconds" in profile
        assert "events_node_down" in profile

    def test_round_trip_through_as_dict(self):
        profile = _run(_ones(), collect_profile=True).profile
        restored = SimProfile.from_dict(profile)
        assert restored.as_dict() == profile

    def test_round_trip_preserves_scheduler_phases(self):
        profile = SimProfile()
        profile.record("gpr_refit", 1.5)
        profile.record("evo_mutation", 0.25)
        profile._total_seconds = 10.0
        payload = profile.as_dict()
        assert payload["gpr_refit_seconds"] == 1.5
        assert SimProfile.from_dict(payload).as_dict() == payload

    def test_round_trip_survives_reserved_phase_names(self):
        profile = SimProfile()
        profile.record("advance", 0.5)  # would clobber advance_seconds
        profile._total_seconds = 1.0
        payload = profile.as_dict()
        assert payload["scheduler_advance_seconds"] == 0.5
        assert SimProfile.from_dict(payload).as_dict() == payload

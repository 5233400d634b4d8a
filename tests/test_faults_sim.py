"""Fault injection through the simulator: evictions, recovery, bit-identity.

Covers the kernel-side half of the subsystem: the ``NODE_DOWN`` /
``NODE_UP`` / ``GPU_DEGRADED`` handlers, the checkpoint/restart cost
model, node compaction for ONES, the zero-fault bit-identity guarantee
(nine scheduler/scale cells), and the end-to-end acceptance scenario
(every scheduler completes a faulted 64-GPU / 40-job run).
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.baselines.base import ClusterState
from repro.baselines.fifo import FIFOScheduler
from repro.cluster.allocation import Allocation
from repro.cluster.topology import make_longhorn_cluster
from repro.experiments.registry import available_schedulers, create_scheduler
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind
from repro.faults.masking import compact_state, virtual_cluster
from repro.jobs.throughput import ThroughputModel
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator

warnings.filterwarnings("ignore", message="Covariance of the parameters")


def _trace(num_jobs=6, seed=17, patience=4, interval=15.0):
    config = TraceConfig(
        num_jobs=num_jobs, arrival_rate=1.0 / interval, convergence_patience=patience
    )
    return TraceGenerator(config, seed=seed).generate()


def _outage(node, start=60.0, end=600.0):
    """A single explicit outage window as a FaultConfig."""
    return FaultConfig(
        injections=(
            FaultInjection(start, FaultKind.NODE_DOWN, node),
            FaultInjection(end, FaultKind.NODE_UP, node),
        )
    )


def _run(scheduler_name, trace, num_gpus=16, faults=None, **options):
    scheduler = create_scheduler(scheduler_name, 2021, **options)
    simulator = ClusterSimulator(
        make_longhorn_cluster(num_gpus),
        scheduler,
        trace,
        config=SimulationConfig(faults=faults),
    )
    return simulator.run()


class TestNodeDownEviction:
    def _sim(self, faults):
        return ClusterSimulator(
            make_longhorn_cluster(8),
            FIFOScheduler(),
            _trace(num_jobs=4),
            config=SimulationConfig(faults=faults),
        )

    def test_outage_evicts_and_recovers(self):
        # Node 0 dies at t=60 while the first jobs are running; the run
        # must evict them, charge restart costs, and still finish.
        result = self._sim(_outage(0)).run()
        assert result.incomplete == []
        assert result.faults["node_down_events"] == 1
        assert result.faults["node_up_events"] == 1
        assert result.faults["evictions"] >= 1
        assert result.faults["restarts"] >= 1
        assert result.faults["restart_delay_seconds"] > 0
        assert result.faults["downtime_gpu_seconds"] > 0
        assert 0.0 < result.faults["goodput"] <= 1.0

    def test_no_allocation_ever_touches_a_down_node(self):
        simulator = self._sim(_outage(0, start=60.0, end=4000.0))
        dead = set(int(g) for g in simulator.topology.gpus_of_node(0))

        original = simulator._apply_allocation
        observed = []

        def checked(proposal):
            if simulator.faults.down_nodes:
                observed.append(set(proposal.used_gpus()) & dead)
            return original(proposal)

        simulator._apply_allocation = checked
        result = simulator.run()
        assert result.incomplete == []
        assert all(not overlap for overlap in observed)

    def test_lost_work_rolled_back_to_epoch_boundary(self):
        # With lost_work_fraction=1.0 the victim loses exactly its
        # progress since the last epoch boundary.
        faults = _outage(0, start=200.0, end=900.0)
        simulator = self._sim(faults)
        result = simulator.run()
        assert result.faults["lost_samples"] > 0
        assert result.faults["lost_gpu_seconds"] > 0

    def test_zero_lost_work_fraction_preserves_progress(self):
        import dataclasses

        gentle = dataclasses.replace(
            _outage(0, start=200.0, end=900.0), lost_work_fraction=0.0
        )
        result = self._sim(gentle).run()
        assert result.faults["lost_samples"] == 0.0
        assert result.faults["evictions"] >= 1

    def test_validate_proposal_rejects_down_gpus(self):
        simulator = self._sim(_outage(0, start=1.0, end=4000.0))
        simulator.run()
        # Re-mark node 0 down and try to deploy onto one of its GPUs.
        simulator.faults.mark_down(0)
        job = next(iter(simulator.jobs.values()))
        proposal = Allocation.from_job_map({job.job_id: [(0, 32)]})
        with pytest.raises(ValueError, match="unavailable"):
            simulator._validate_proposal(proposal)


class TestDegradedNodes:
    def test_straggler_slows_rates_and_recovers(self):
        slow = FaultConfig(
            injections=(
                FaultInjection(60.0, FaultKind.GPU_DEGRADED, 0, factor=0.25),
                FaultInjection(600.0, FaultKind.GPU_DEGRADED, 0, factor=1.0),
            )
        )
        clean = _run("FIFO", _trace(num_jobs=4), num_gpus=8)
        degraded = _run("FIFO", _trace(num_jobs=4), num_gpus=8, faults=slow)
        assert degraded.incomplete == []
        assert degraded.faults["degrade_events"] == 2
        # A straggler must cost wall-clock, never capacity.
        assert degraded.faults["evictions"] == 0
        assert degraded.makespan > clean.makespan

    def test_degrade_affects_only_placements_on_the_node(self):
        topology = make_longhorn_cluster(8)
        simulator = ClusterSimulator(
            topology,
            FIFOScheduler(),
            _trace(num_jobs=2),
            config=SimulationConfig(
                faults=FaultConfig(
                    injections=(
                        FaultInjection(60.0, FaultKind.GPU_DEGRADED, 0, factor=0.5),
                        FaultInjection(600.0, FaultKind.GPU_DEGRADED, 0, factor=1.0),
                    )
                )
            ),
        )
        simulator.run()
        runtime = simulator.faults
        assert runtime.placement_factor([0, 1]) == 1.0  # restored at t=600


class TestMasking:
    def _state(self, down_node=0):
        topology = make_longhorn_cluster(16)
        model = ThroughputModel(topology)
        unavailable = frozenset(int(g) for g in topology.gpus_of_node(down_node))
        return ClusterState(
            now=0.0,
            topology=topology,
            throughput_model=model,
            allocation=Allocation.empty(),
            jobs={},
            unavailable_gpus=unavailable,
        )

    def test_virtual_cluster_shrinks_by_whole_nodes(self):
        state = self._state()
        topology, model = virtual_cluster(state)
        assert topology.num_nodes == state.topology.num_nodes - 1
        assert topology.num_gpus == state.topology.num_gpus - state.topology.gpus_per_node
        assert model.allreduce_efficiency == state.throughput_model.allreduce_efficiency

    def test_mapping_round_trips_allocations(self):
        state = self._state(down_node=1)
        topology, model = virtual_cluster(state)
        view = compact_state(state, topology, model)
        # Virtual ids are dense and map to up-node GPUs only.
        assert sorted(view.from_real) == sorted(
            set(range(16)) - set(state.unavailable_gpus)
        )
        virtual_alloc = Allocation.from_job_map({"job-a": [(0, 32), (1, 32)]})
        real = view.expand(virtual_alloc)
        assert all(g not in state.unavailable_gpus for g in real.used_gpus())
        back = {view.from_real[gpu]: worker for gpu, worker in real.as_dict().items()}
        assert back == virtual_alloc.as_dict()

    def test_locality_preserved_exactly(self):
        state = self._state(down_node=1)
        topology, model = virtual_cluster(state)
        view = compact_state(state, topology, model)
        per_node = state.topology.gpus_per_node
        for virtual_gpu in range(topology.num_gpus):
            real_gpu = int(view.to_real[virtual_gpu])
            # GPUs sharing a virtual node share a real node.
            assert int(topology.node_of(virtual_gpu)) == virtual_gpu // per_node
            assert int(state.topology.node_of(real_gpu)) != 1

    def test_partial_node_unavailability_rejected(self):
        state = self._state()
        state.unavailable_gpus = frozenset({0})  # half a node
        with pytest.raises(ValueError, match="whole nodes"):
            virtual_cluster(state)


#: The nine pinned scheduler/scale cells of the zero-fault identity test:
#: three schedulers x three (capacity, jobs) scales.  ONES runs with a
#: small population so the whole matrix stays fast.
NINE_CELLS = [
    (scheduler, num_gpus, num_jobs)
    for scheduler in ("ONES", "FIFO", "Tiresias")
    for num_gpus, num_jobs in ((8, 4), (16, 6), (16, 8))
]


class TestZeroFaultBitIdentity:
    """A disabled FaultConfig must not perturb a single trajectory."""

    @pytest.mark.parametrize("scheduler,num_gpus,num_jobs", NINE_CELLS)
    def test_disabled_faults_identical(self, scheduler, num_gpus, num_jobs):
        options = {"population_size": 4} if scheduler == "ONES" else {}
        trace = _trace(num_jobs=num_jobs)
        clean = _run(scheduler, trace, num_gpus, faults=None, **options)
        disabled = _run(
            scheduler, trace, num_gpus, faults=FaultConfig(profile="none"), **options
        )
        assert json.dumps(clean.to_dict(), sort_keys=True) == json.dumps(
            disabled.to_dict(), sort_keys=True
        )

    def test_nonzero_plan_changes_deterministically(self):
        trace = _trace(num_jobs=6)
        clean = _run("ONES", trace, 16, population_size=4)
        faulted_a = _run("ONES", trace, 16, faults=_outage(1), population_size=4)
        faulted_b = _run("ONES", trace, 16, faults=_outage(1), population_size=4)
        # The plan changes the trajectory...
        assert faulted_a.completed != clean.completed
        # ...but two faulted runs are bit-identical.
        assert json.dumps(faulted_a.to_dict(), sort_keys=True) == json.dumps(
            faulted_b.to_dict(), sort_keys=True
        )


class TestFaultedEndToEnd:
    """Acceptance: every scheduler survives a seeded fault profile."""

    @pytest.mark.parametrize("scheduler", sorted(available_schedulers()))
    def test_all_schedulers_complete_under_mtbf(self, scheduler):
        faults = FaultConfig(profile="mtbf", seed=3, mtbf_hours=0.5, repair_minutes=8)
        options = {"population_size": 4} if scheduler == "ONES" else {}
        result = _run(scheduler, _trace(num_jobs=6), 16, faults=faults, **options)
        assert result.incomplete == [], scheduler
        assert result.faults["node_down_events"] > 0, scheduler

    def test_paper_scale_faulted_scenario(self):
        # The ISSUE acceptance scenario: 64 GPUs / 40 jobs under a seeded
        # MTBF profile, ONES (scaled population) alongside every baseline.
        trace = _trace(num_jobs=40, seed=2021, patience=4, interval=30.0)
        faults = FaultConfig(profile="mtbf", seed=5, mtbf_hours=1.0, repair_minutes=10)
        for scheduler in sorted(available_schedulers()):
            options = (
                {"population_size": 8, "iterations_per_invocation": 1}
                if scheduler == "ONES"
                else {}
            )
            result = _run(scheduler, trace, 64, faults=faults, **options)
            assert result.incomplete == [], scheduler
            assert result.faults["node_down_events"] > 0, scheduler
            assert 0.0 < result.faults["goodput"] <= 1.0, scheduler

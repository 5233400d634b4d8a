"""Hierarchical partitioned ONES: flat parity, reconciler properties, wide path.

The parity suite is differential — the single-partition configuration
must reproduce flat ONES *bit-for-bit* (full ``SimulationResult``
payload), faulted and unfaulted, because the scheduler delegates
wholesale to one flat instance in that mode.  The property suite pins
the reconciler invariants: a job's workers never span two partitions,
assignments are sticky, and gangs wider than a partition spill to the
whole-node wide path and get placed.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import pickle
import warnings
from concurrent.futures import Future
from dataclasses import replace
from types import SimpleNamespace

from repro.baselines.base import ClusterState
from repro.cluster.topology import make_longhorn_cluster
from repro.core import partitioned
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.core.partitioned import (
    WIDE,
    HierarchicalConfig,
    HierarchicalONESScheduler,
)
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultInjection, FaultKind
from repro.sim.ledger import ProgressLedger
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from repro.sim.views import partition_nodes
from repro.workload.trace import TraceConfig, TraceGenerator

warnings.filterwarnings("ignore", message="Covariance of the parameters")

SEED = 2021


def _trace(num_jobs=8, seed=17, patience=3, interval=20.0):
    config = TraceConfig(
        num_jobs=num_jobs, arrival_rate=1.0 / interval, convergence_patience=patience
    )
    return TraceGenerator(config, seed=seed).generate()


def _ones_config():
    # A small population keeps the differential runs fast without
    # changing any code path under test.
    return ONESConfig(evolution=EvolutionConfig(population_size=4))


def _faults():
    """A multi-event profile: two outages, one of them overlapping."""
    return FaultConfig(
        injections=(
            FaultInjection(60.0, FaultKind.NODE_DOWN, 1),
            FaultInjection(180.0, FaultKind.NODE_DOWN, 2),
            FaultInjection(420.0, FaultKind.NODE_UP, 1),
            FaultInjection(600.0, FaultKind.NODE_UP, 2),
        )
    )


def _run(scheduler, trace, num_gpus=16, faults=None):
    simulator = ClusterSimulator(
        make_longhorn_cluster(num_gpus),
        scheduler,
        trace,
        config=SimulationConfig(faults=faults),
    )
    return simulator.run()


def _payload(result):
    payload = result.to_dict()
    # The scheduler label legitimately differs ("ONES" vs "ONES-hier");
    # every behavioural field must match bit-for-bit.
    payload.pop("scheduler_name", None)
    payload.pop("scheduler", None)
    return json.dumps(payload, sort_keys=True)


class TestFlatParity:
    """partitions=1 must be bit-identical to flat ONES."""

    def test_unfaulted_run_is_bit_identical(self):
        flat = _run(ONESScheduler(_ones_config(), seed=SEED), _trace())
        hier = _run(
            HierarchicalONESScheduler(
                HierarchicalConfig(partitions=1, ones=_ones_config()), seed=SEED
            ),
            _trace(),
        )
        assert _payload(flat) == _payload(hier)

    def test_faulted_run_is_bit_identical(self):
        flat = _run(ONESScheduler(_ones_config(), seed=SEED), _trace(), faults=_faults())
        hier = _run(
            HierarchicalONESScheduler(
                HierarchicalConfig(partitions=1, ones=_ones_config()), seed=SEED
            ),
            _trace(),
            faults=_faults(),
        )
        assert _payload(flat) == _payload(hier)

    def test_partition_size_covering_cluster_is_parity_mode(self):
        scheduler = HierarchicalONESScheduler(
            HierarchicalConfig(partition_size=16, ones=_ones_config()), seed=SEED
        )
        result = _run(scheduler, _trace(num_jobs=4))
        assert result.incomplete == []
        # Delegation, not emulation: a single flat instance did the work.
        assert scheduler._flat is not None
        assert scheduler.describe_state()["partitions"] == 1


class _Recording(HierarchicalONESScheduler):
    """Snapshots (assignment, deployed allocation) at every deployment."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snapshots = []

    def _handle(self, state, kind, job=None, record=None):
        allocation = super()._handle(state, kind, job, record)
        if allocation is not None:
            self.snapshots.append((dict(self._assignment), allocation.as_dict()))
        return allocation


def _partition_of_node(topology, size):
    lookup = {}
    for index, nodes in enumerate(partition_nodes(topology, size)):
        for node in nodes:
            lookup[node] = index
    return lookup


class TestReconcilerProperties:
    def _run_recorded(self, trace, num_gpus=32, partition_size=16, faults=None):
        scheduler = _Recording(
            HierarchicalConfig(partition_size=partition_size, ones=_ones_config()),
            seed=SEED,
        )
        topology = make_longhorn_cluster(num_gpus)
        result = ClusterSimulator(
            topology, scheduler, trace, config=SimulationConfig(faults=faults)
        ).run()
        return scheduler, topology, result

    def test_no_job_ever_spans_two_partitions(self):
        scheduler, topology, result = self._run_recorded(_trace(num_jobs=8))
        assert result.incomplete == []
        assert scheduler.snapshots
        node_partition = _partition_of_node(topology, 16)
        for assignment, alloc in scheduler.snapshots:
            per_job = {}
            for gpu, worker in alloc.items():
                node = int(topology.node_of(gpu))
                per_job.setdefault(worker[0], set()).add(node_partition[node])
            for job_id, partitions in per_job.items():
                owner = assignment.get(job_id)
                if owner == WIDE:
                    continue
                assert len(partitions) == 1, (job_id, partitions)
                assert partitions == {owner}, (job_id, partitions, owner)

    def test_assignments_are_sticky(self):
        scheduler, _, _ = self._run_recorded(_trace(num_jobs=8))
        seen = {}
        for assignment, _alloc in scheduler.snapshots:
            for job_id, index in assignment.items():
                seen.setdefault(job_id, set()).add(index)
        assert seen
        for job_id, indices in seen.items():
            assert len(indices) == 1, (job_id, indices)

    def test_wide_job_spills_and_gang_places(self):
        trace = _trace(num_jobs=6)
        # One gang wider than a 16-GPU partition: must take the wide path.
        wide_id = trace[2].job_id
        trace[2] = replace(trace[2], requested_gpus=24)
        scheduler, topology, result = self._run_recorded(trace)
        assert result.incomplete == []
        assert wide_id in result.completed
        assert scheduler.num_wide_placements >= 1
        wide_snapshots = [
            (assignment, alloc)
            for assignment, alloc in scheduler.snapshots
            if any(worker[0] == wide_id for worker in alloc.values())
        ]
        assert wide_snapshots, "the wide gang was never deployed"
        for assignment, alloc in wide_snapshots:
            assert assignment[wide_id] == WIDE
            gpus = [g for g, worker in alloc.items() if worker[0] == wide_id]
            assert len(gpus) == 24
            # The gang owns its nodes outright: no co-located workers.
            wide_nodes = {int(topology.node_of(g)) for g in gpus}
            for gpu, worker in alloc.items():
                if worker[0] != wide_id:
                    assert int(topology.node_of(gpu)) not in wide_nodes

    def test_faulted_partitioned_run_completes(self):
        scheduler, _, result = self._run_recorded(
            _trace(num_jobs=6), faults=_faults()
        )
        assert result.incomplete == []
        assert result.faults["node_down_events"] > 0
        # Faults never corrupted the partition bookkeeping.
        summary = scheduler.describe_state()
        assert summary["partitions"] == 2
        assert summary["assigned_jobs"] == 0  # everything pruned at the end
        # Predictor health rolls up across the shards' inner schedulers.
        evaluations = [
            p.inner.predictor.gpr_health.nll_evaluations
            for p in scheduler._partitions
        ]
        assert summary["predictor_nll_evaluations"] == sum(evaluations) > 0
        assert summary["predictor_non_pd_evaluations"] == 0
        fits = [p.inner.predictor.fit_count for p in scheduler._partitions]
        assert summary["predictor_fits"] == sum(fits) > 0

    def test_parallel_workers_bit_identical_to_sequential(self, monkeypatch):
        # Background passes go to the process pool only when two
        # partitions are dirty at once; under these outages some are, and
        # the assertions below check that a pool ran and that none of its
        # worker processes outlives the run.
        _, _, seq_result = self._run_recorded(_trace(num_jobs=6), faults=_faults())
        pools = []

        class CountedPool(partitioned.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(partitioned, "ProcessPoolExecutor", CountedPool)
        parallel = _Recording(
            HierarchicalConfig(
                partition_size=16, ones=_ones_config(), parallel_workers=2
            ),
            seed=SEED,
        )
        children_before = set(multiprocessing.active_children())
        par_result = _run(parallel, _trace(num_jobs=6), num_gpus=32, faults=_faults())
        assert pools and not parallel._pool_broken
        assert set(multiprocessing.active_children()) <= children_before
        assert _payload(seq_result) == _payload(par_result)

    def test_pool_payloads_refer_to_no_ledger(self, monkeypatch):
        # What a background pass sends to the pool is the inner scheduler
        # and its partition's derived state; neither may reach the
        # simulator's ledger (derived states carry no write-back).
        pickled_types = set()

        class Spy(pickle.Pickler):
            def reducer_override(self, obj):
                pickled_types.add(type(obj))
                return NotImplemented

        def dumps(obj):
            buffer = io.BytesIO()
            Spy(buffer).dump(obj)
            return buffer.getvalue()

        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(partitioned, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(
            partitioned, "pickle", SimpleNamespace(dumps=dumps, loads=pickle.loads)
        )
        scheduler = HierarchicalONESScheduler(
            HierarchicalConfig(partition_size=16, ones=_ones_config(), parallel_workers=2),
            seed=SEED,
        )
        _run(scheduler, _trace(num_jobs=6), num_gpus=32, faults=_faults())
        assert not scheduler._pool_broken
        assert ClusterState in pickled_types and ONESScheduler in pickled_types
        assert ProgressLedger not in pickled_types
        assert ClusterSimulator not in pickled_types

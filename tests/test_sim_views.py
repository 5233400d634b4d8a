"""The per-partition view cache of :class:`repro.sim.views.PartitionViewFactory`.

A reused view must be indistinguishable from a fresh compaction: same
compacted allocation (in the same GPU order), same id maps, the caller's
job dict and clock.  The oracle below checks that at every callback of
the faulted ONES-hier golden run, where faults, reservations and drains
change the visible nodes and deployments change the allocation.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ClusterState
from repro.cluster.allocation import Allocation, WorkerAssignment
from repro.cluster.topology import make_longhorn_cluster
from repro.faults.masking import compact_nodes
from repro.jobs.throughput import ThroughputModel
from repro.sim.views import PartitionViewFactory
from tests.conftest import make_job
from tests.test_core_hier_golden_trace import golden_simulator


def _assert_same_view(view, fresh, jobs, now):
    assert list(view.state.allocation.as_dict().items()) == list(
        fresh.state.allocation.as_dict().items()
    )
    assert np.array_equal(view.to_real, fresh.to_real)
    assert view.from_real == fresh.from_real
    assert view.state.jobs is jobs
    assert view.state.now == now
    assert view.state.topology is fresh.state.topology
    assert view.state.throughput_model is fresh.state.throughput_model
    assert view.state.unavailable_gpus == frozenset()


def test_cached_views_equal_fresh_compaction_at_every_callback(monkeypatch):
    original = PartitionViewFactory.view
    seen_allocations = []
    stats = {"views": 0, "reused": 0}

    def checked(self, state, partition, nodes, jobs):
        view = original(self, state, partition, nodes, jobs)
        if view is None:
            assert not tuple(nodes)
            return view
        topology, model = self.dense_cluster(len(tuple(nodes)))
        fresh = compact_nodes(state, nodes, topology, model, jobs=jobs, strict=False)
        _assert_same_view(view, fresh, jobs, state.now)
        stats["views"] += 1
        if any(view.state.allocation is seen for seen in seen_allocations):
            stats["reused"] += 1
        else:
            seen_allocations.append(view.state.allocation)
        return view

    monkeypatch.setattr(PartitionViewFactory, "view", checked)
    simulator = golden_simulator()
    result = simulator.run()
    assert result.incomplete == []
    # The run exercised both paths: compactions and reuses.
    assert 0 < stats["reused"] < stats["views"]


def _state(allocation, jobs, now=0.0, num_gpus=16):
    topology = make_longhorn_cluster(num_gpus)
    return ClusterState(
        now=now,
        topology=topology,
        throughput_model=ThroughputModel(topology),
        allocation=allocation,
        jobs=jobs,
    )


class TestReuseConditions:
    def setup_method(self):
        self.jobs = {j: make_job(job_id=j) for j in ("a", "b", "c")}
        self.allocation = Allocation(
            {
                0: WorkerAssignment("a", 32),
                5: WorkerAssignment("b", 32),
                9: WorkerAssignment("c", 32),
            }
        )
        state = _state(self.allocation, self.jobs)
        self.factory = PartitionViewFactory(state.topology, 0.7)
        self.first = self.factory.view(
            state, 0, (0, 1), {"a": self.jobs["a"], "b": self.jobs["b"]}
        )

    def _view(self, allocation=None, nodes=(0, 1), job_ids=("a", "b"), now=5.0):
        allocation = self.allocation if allocation is None else allocation
        state = _state(allocation, self.jobs, now=now)
        jobs = {j: self.jobs[j] for j in job_ids}
        return self.factory.view(state, 0, nodes, jobs), jobs

    def test_unchanged_inputs_reuse_the_compaction(self):
        view, jobs = self._view(job_ids=("b", "a"))
        assert view.state.allocation is self.first.state.allocation
        assert view.to_real is self.first.to_real
        assert view.state is not self.first.state
        assert view.state.jobs is jobs and view.state.now == 5.0

    def test_a_new_allocation_object_recompacts(self):
        equal = Allocation(
            {g: WorkerAssignment(j, b) for g, (j, b) in self.allocation.as_dict().items()}
        )
        view, _ = self._view(allocation=equal)
        assert view.state.allocation is not self.first.state.allocation
        assert view.state.allocation == self.first.state.allocation

    def test_other_nodes_or_jobs_recompact(self):
        view, _ = self._view(nodes=(0, 2))
        assert view.state.allocation is not self.first.state.allocation
        assert view.state.allocation.jobs() == {"a"}  # b sits on node 1
        view, _ = self._view(nodes=(0, 2), job_ids=("a", "c"))
        assert view.state.allocation.jobs() == {"a", "c"}

    def test_partitions_are_cached_separately(self):
        state = _state(self.allocation, self.jobs)
        other = self.factory.view(state, 1, (2, 3), {"c": self.jobs["c"]})
        assert other.state.allocation.jobs() == {"c"}
        view, _ = self._view()
        assert view.state.allocation is self.first.state.allocation

    def test_no_visible_nodes_is_no_view(self):
        state = _state(self.allocation, self.jobs)
        assert self.factory.view(state, 0, (), {"a": self.jobs["a"]}) is None

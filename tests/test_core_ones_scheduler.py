"""Tests for repro.core.ones_scheduler."""

import pytest

from repro.baselines.base import ClusterState
from repro.cluster.allocation import Allocation
from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.jobs.throughput import ThroughputModel
from repro.scaling.overhead import ReconfigurationKind
from repro.sim.simulator import ClusterSimulator, SimulationConfig
from tests.conftest import make_job, make_spec


def _state(jobs, topology, allocation=None, now=0.0):
    return ClusterState(
        now=now,
        topology=topology,
        throughput_model=ThroughputModel(topology),
        allocation=allocation or Allocation.empty(),
        jobs=jobs,
    )


@pytest.fixture
def scheduler():
    return ONESScheduler(
        ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=0
    )


@pytest.fixture
def topology():
    return make_longhorn_cluster(8)


class TestCapabilities:
    def test_table3_row(self, scheduler):
        row = scheduler.describe()
        assert row["Scheduler"] == "ONES"
        assert row["Greedy/Dynamic Strategy"] == "Dynamic"
        assert row["Allow Preemption"] == "Y"
        assert row["Elastic Job Size"] == "Y"
        assert row["Elastic Batch Size"] == "Y"

    def test_uses_elastic_reconfiguration(self, scheduler):
        assert scheduler.reconfiguration_kind is ReconfigurationKind.ELASTIC

    def test_scales_learning_rate(self, scheduler):
        assert scheduler.lr_is_scaled()


class TestArrival:
    def test_first_arrival_gets_gpus_immediately(self, scheduler, topology):
        job = make_job(job_id="job-0", arrival_time=0.0)
        jobs = {"job-0": job}
        proposal = scheduler.on_job_arrival(job, _state(jobs, topology))
        assert proposal is not None
        assert proposal.num_gpus("job-0") >= 1
        assert proposal.global_batch("job-0") >= 1

    def test_arrival_registers_batch_limit(self, scheduler, topology):
        job = make_job(job_id="job-0")
        scheduler.on_job_arrival(job, _state({"job-0": job}, topology))
        assert scheduler.limiter.limit("job-0") <= job.spec.max_local_batch

    def test_proposal_respects_device_limits(self, scheduler, topology):
        job = make_job(job_id="job-0", base_batch=256, requested_gpus=2)
        proposal = scheduler.on_job_arrival(job, _state({"job-0": job}, topology))
        config = proposal.config_of("job-0")
        assert all(b <= job.spec.max_local_batch for b in config.local_batches)

    def test_multiple_arrivals_all_served_with_capacity(self, scheduler, topology):
        jobs = {}
        allocation = Allocation.empty()
        for i in range(3):
            job = make_job(job_id=f"job-{i}", arrival_time=float(i))
            jobs[f"job-{i}"] = job
            state = _state(jobs, topology, allocation, now=float(i))
            proposal = scheduler.on_job_arrival(job, state)
            if proposal is not None:
                allocation = proposal
                for job_id in proposal.jobs():
                    config = proposal.config_of(job_id)
                    jobs[job_id].start_running(
                        float(i), config.gpu_ids, config.local_batches
                    )
        placed = {j for j in jobs if allocation.num_gpus(j) > 0}
        assert placed == set(jobs)


class TestEndToEnd:
    def test_ones_completes_small_trace(self, tiny_trace):
        topology = make_longhorn_cluster(8)
        scheduler = ONESScheduler(
            ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=1
        )
        result = ClusterSimulator(
            topology, scheduler, tiny_trace, config=SimulationConfig(max_time=48 * 3600)
        ).run()
        assert not result.incomplete
        assert result.average_jct > 0
        assert scheduler.num_full_updates + scheduler.num_incremental_fills > 0

    def test_batch_sizes_grow_during_run(self, tiny_trace):
        """The defining behaviour: ONES raises batch sizes beyond submission."""
        topology = make_longhorn_cluster(8)
        scheduler = ONESScheduler(
            ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=1
        )
        result = ClusterSimulator(topology, scheduler, tiny_trace).run()
        grew = 0
        for spec in tiny_trace:
            job = result.jobs[spec.job_id]
            max_batch = max((b for _, b in job.batch_history), default=0)
            if max_batch > spec.base_batch:
                grew += 1
        assert grew >= 1

    def test_predictor_learns_from_completions(self, tiny_trace):
        topology = make_longhorn_cluster(8)
        scheduler = ONESScheduler(
            ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=1
        )
        ClusterSimulator(topology, scheduler, tiny_trace).run()
        assert scheduler.predictor.history.completed_jobs == len(tiny_trace)
        assert scheduler.predictor.is_fitted
        # The fits' numerical health reaches the metrics registry.
        state = scheduler.describe_state()
        health = scheduler.predictor.gpr_health
        assert state["predictor_nll_evaluations"] == health.nll_evaluations > 0
        assert state["predictor_optimizer_iterations"] == health.optimizer_iterations
        assert state["predictor_non_pd_evaluations"] == 0
        assert state["predictor_unconverged_fits"] == health.unconverged_fits


class TestThroughputMemoisation:
    """The per-invocation table and cross-invocation memo stay bounded."""

    def test_memo_bounded_after_full_simulation(self, tiny_trace):
        topology = make_longhorn_cluster(8)
        scheduler = ONESScheduler(
            ONESConfig(evolution=EvolutionConfig(population_size=4)), seed=1
        )
        ClusterSimulator(topology, scheduler, tiny_trace).run()
        assert len(scheduler._throughput_memo) <= scheduler.config.throughput_memo_entries
        table = scheduler.last_throughput_table
        assert table is not None
        assert table.filled_entries <= table.capacity
        state = scheduler.describe_state()
        assert state["throughput_memo_entries"] == len(scheduler._throughput_memo)

    def test_tiny_memo_bound_is_respected(self, tiny_trace):
        scheduler = ONESScheduler(
            ONESConfig(
                evolution=EvolutionConfig(population_size=4),
                throughput_memo_entries=16,
            ),
            seed=1,
        )
        result = ClusterSimulator(
            make_longhorn_cluster(8), scheduler, tiny_trace
        ).run()
        assert not result.incomplete  # a tiny memo degrades speed, not behaviour
        assert len(scheduler._throughput_memo) <= 16

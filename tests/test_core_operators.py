"""Semantics of the §3.2.2 operators (refresh / crossover / mutation / reorder).

Checked on the scalar reference in ``tests/_evolution_oracle.py``, the
readable statement of each operator; the generation kernel is pinned to
it bit for bit by ``test_core_evolution_batched.py``.
"""

import numpy as np
import pytest

from repro.core.operators import EvolutionContext
from repro.core.schedule import IDLE, Schedule
from tests._core_helpers import make_context, make_jobs
from tests._evolution_oracle import (
    fill_idle_gpus,
    refresh,
    reorder,
    uniform_crossover,
    uniform_mutation,
)
from tests._evolution_oracle import empty_schedule, gpu_counts, idle_gpus


class TestRefresh:
    def test_completed_jobs_removed_via_roster(self):
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4)
        old_roster = ("job-0", "job-1", "job-gone")
        schedule = Schedule(roster=old_roster, genome=np.array([2, 2, 0, 1]))
        refreshed = refresh(schedule, ctx)
        assert "job-gone" not in refreshed.placed_jobs()

    def test_new_jobs_get_one_gpu(self):
        jobs = make_jobs(3)
        ctx = make_context(jobs, num_gpus=4)
        empty = empty_schedule(ctx.roster, 4)
        refreshed = refresh(empty, ctx)
        for job_id in ctx.never_started:
            assert refreshed.gpu_count(job_id) >= 1

    def test_new_jobs_take_gpus_from_longest_running_when_full(self):
        jobs = make_jobs(3)
        # job-0 and job-1 are long-running and occupy the whole cluster.
        jobs["job-0"].start_running(0.0, [0, 1], [64, 64])
        jobs["job-1"].start_running(0.0, [2, 3], [64, 64])
        ctx = make_context(jobs, num_gpus=4)
        ctx.executed_time.update({"job-0": 1000.0, "job-1": 10.0})
        ctx.never_started = {"job-2"}
        schedule = Schedule(roster=ctx.roster, genome=np.array([0, 0, 1, 1]))
        refreshed = refresh(schedule, ctx)
        assert refreshed.gpu_count("job-2") >= 1
        # The GPU came from the longest-running job.
        assert refreshed.gpu_count("job-0") < 2

    def test_over_allocated_job_is_shrunk(self):
        jobs = make_jobs(1)
        ctx = make_context(jobs, num_gpus=8, limits={"job-0": 128})
        # desired = ceil(128 / 128) = 1 GPU, but the genome gives it 6.
        schedule = Schedule(roster=ctx.roster, genome=np.array([0, 0, 0, 0, 0, 0, IDLE, IDLE]))
        refreshed = refresh(schedule, ctx)
        assert refreshed.gpu_count("job-0") == 1

    def test_idle_gpus_filled_when_limits_allow(self):
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=8, limits={"job-0": 1024, "job-1": 1024})
        empty = empty_schedule(ctx.roster, 8)
        refreshed = refresh(empty, ctx)
        assert len(idle_gpus(refreshed)) == 0


class TestFillIdleGpus:
    def test_fills_up_to_desired(self):
        jobs = make_jobs(1)
        ctx = make_context(jobs, num_gpus=4, limits={"job-0": 512})
        schedule = Schedule(roster=ctx.roster, genome=np.array([0, IDLE, IDLE, IDLE]))
        filled = fill_idle_gpus(schedule, ctx)
        assert filled.gpu_count("job-0") == 4  # ceil(512/128) = 4 desired

    def test_no_moves_when_everyone_at_desired(self):
        jobs = make_jobs(1)
        ctx = make_context(jobs, num_gpus=4, limits={"job-0": 128})
        schedule = Schedule(roster=ctx.roster, genome=np.array([0, IDLE, IDLE, IDLE]))
        filled = fill_idle_gpus(schedule, ctx)
        assert filled.gpu_count("job-0") == 1
        assert len(idle_gpus(filled)) == 3


class TestUniformCrossover:
    def test_children_mix_parent_genes(self):
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=8)
        parent_a = Schedule(roster=ctx.roster, genome=np.zeros(8, dtype=np.int64))
        parent_b = Schedule(roster=ctx.roster, genome=np.ones(8, dtype=np.int64))
        child1, child2 = uniform_crossover(parent_a, parent_b, rng=3)
        for gpu in range(8):
            genes = {int(child1.genome[gpu]), int(child2.genome[gpu])}
            assert genes == {0, 1}

    def test_mismatched_parents_rejected(self):
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4)
        a = empty_schedule(ctx.roster, 4)
        b = empty_schedule(("other",), 4)
        with pytest.raises(ValueError):
            uniform_crossover(a, b)
        c = empty_schedule(ctx.roster, 6)
        with pytest.raises(ValueError):
            uniform_crossover(a, c)


class TestUniformMutation:
    def test_mutation_rate_zero_keeps_schedule(self):
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4, limits={"job-0": 128, "job-1": 128})
        schedule = Schedule(roster=ctx.roster, genome=np.array([0, 1, IDLE, IDLE]))
        mutated = uniform_mutation(schedule, ctx, mutation_rate=0.0)
        assert gpu_counts(mutated) == gpu_counts(schedule)

    def test_mutation_rate_one_preempts_and_refills(self):
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4, limits={"job-0": 1024, "job-1": 1024})
        schedule = Schedule(roster=ctx.roster, genome=np.array([0, 0, 0, 0]))
        mutated = uniform_mutation(schedule, ctx, mutation_rate=1.0)
        # Everything was preempted; the fill step re-used the GPUs.
        assert len(idle_gpus(mutated)) == 0

    def test_invalid_rate_rejected(self):
        jobs = make_jobs(1)
        ctx = make_context(jobs, num_gpus=4)
        schedule = empty_schedule(ctx.roster, 4)
        with pytest.raises(ValueError):
            uniform_mutation(schedule, ctx, mutation_rate=1.5)


class TestReorder:
    def test_packs_by_first_occurrence(self):
        jobs = make_jobs(3)
        ctx = make_context(jobs, num_gpus=8)
        scattered = Schedule(
            roster=ctx.roster, genome=np.array([2, 0, 1, 0, IDLE, 2, IDLE, IDLE])
        )
        packed = reorder(scattered)
        assert list(packed.genome) == [2, 2, 0, 0, 1, IDLE, IDLE, IDLE]

    def test_counts_preserved(self):
        jobs = make_jobs(3)
        ctx = make_context(jobs, num_gpus=8)
        scattered = Schedule(
            roster=ctx.roster, genome=np.array([2, 0, 1, 0, IDLE, 2, IDLE, IDLE])
        )
        assert gpu_counts(reorder(scattered)) == gpu_counts(scattered)

    def test_reorder_improves_locality(self, topology16):
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=16)
        # job-0's workers scattered across nodes.
        genome = np.full(16, IDLE, dtype=np.int64)
        genome[[0, 5, 10, 15]] = 0
        scattered = Schedule(roster=ctx.roster, genome=genome)
        packed = reorder(scattered)
        assert topology16.nodes_spanned(packed.gpus_of("job-0")) <= topology16.nodes_spanned(
            scattered.gpus_of("job-0")
        )


class TestEvolutionContext:
    def test_throughput_table_required(self):
        ctx = make_context(make_jobs(2), num_gpus=4)
        fields = dict(
            jobs=ctx.jobs,
            roster=ctx.roster,
            limits=ctx.limits,
            distributions=ctx.distributions,
            remaining_workload=ctx.remaining_workload,
            executed_time=ctx.executed_time,
            num_gpus=4,
        )
        with pytest.raises(TypeError):
            EvolutionContext(**fields)
        with pytest.raises(ValueError):
            EvolutionContext(**fields, throughput_table=None)
        assert EvolutionContext(**fields, throughput_table=ctx.throughput_table).num_gpus == 4

"""Tests for the search's population: ``G_0`` and its upkeep between events.

The population is the genome matrix of
:class:`~repro.core.evolution.EvolutionarySearch`, initialised by
:func:`~repro.core.evolution_batched.initial_population_genomes`.
"""

import numpy as np
import pytest

import tests._evolution_oracle as oracle
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.evolution_batched import first_seen_rows, initial_population_genomes
from repro.core.schedule import IDLE, Schedule
from tests._core_helpers import make_context, make_jobs
from tests._evolution_oracle import empty_schedule


class TestPopulation:
    def test_add_and_len(self):
        """The search holds K candidates plus the deployed schedule it is handed."""
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4)
        search = EvolutionarySearch(EvolutionConfig(population_size=3), seed=0)
        assert search.population_size == 0
        assert search._genomes is None
        search.ensure_population(ctx, empty_schedule(ctx.roster, 4))
        assert search.population_size == 4
        assert search._genomes.shape == (4, 4)

    def test_unique_dedups_by_genome(self):
        """Selection keeps one copy of each genome: survivors are distinct."""
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4)
        search = EvolutionarySearch(EvolutionConfig(population_size=8), seed=1)
        search.step(ctx)
        rows = search._genomes
        assert np.unique(rows, axis=0).shape[0] == rows.shape[0]

    def test_reindexed(self):
        """A roster change re-expresses every member; completed jobs vanish."""
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4)
        search = EvolutionarySearch(EvolutionConfig(population_size=4), seed=2)
        search.ensure_population(ctx, None)
        before = search._genomes.copy()
        smaller = make_context({"job-1": jobs["job-1"]}, num_gpus=4)
        search.ensure_population(smaller, None)
        expected = [
            Schedule(roster=ctx.roster, genome=row).reindexed(("job-1",)).genome
            for row in before
        ]
        assert np.array_equal(search._genomes, np.stack(expected))


class TestInitialPopulation:
    def test_size_and_validity(self):
        jobs = make_jobs(3)
        ctx = make_context(jobs, num_gpus=8)
        genomes = initial_population_genomes(ctx, size=6, seed=1)
        assert genomes.shape == (6, 8)
        assert genomes.dtype == np.int64
        for row in genomes:
            Schedule(roster=ctx.roster, genome=row)  # validates the genes

    def test_members_are_executable(self):
        """No initial candidate gives a job more GPUs than it can use."""
        jobs = make_jobs(3)
        ctx = make_context(jobs, num_gpus=8)
        desired = [ctx.desired_gpus(job_id) for job_id in ctx.roster]
        for row in initial_population_genomes(ctx, size=4, seed=2):
            counts = np.bincount(row[row != IDLE], minlength=len(ctx.roster))
            assert (counts <= desired).all()

    def test_current_schedule_seeded(self):
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4)
        current = Schedule(roster=ctx.roster, genome=np.array([0, 0, 1, 1]))
        genomes = initial_population_genomes(ctx, size=3, current=current, seed=3)
        assert genomes.shape[0] == 4
        seeded = oracle.reorder(oracle.refresh(current, ctx))
        assert np.array_equal(genomes[-1], seeded.genome)

    def test_no_jobs_gives_idle_members(self):
        ctx = make_context({}, num_gpus=4)
        genomes = initial_population_genomes(ctx, size=2, seed=4)
        assert genomes.shape == (2, 4)
        assert (genomes == IDLE).all()

    def test_invalid_size(self):
        jobs = make_jobs(1)
        ctx = make_context(jobs, num_gpus=4)
        with pytest.raises(ValueError):
            initial_population_genomes(ctx, size=0)


class TestGenomeMatrix:
    def test_matches_member_genomes(self):
        """``G_0`` equals the oracle's initial population, draw for draw."""
        jobs = make_jobs(3)
        for i, job in enumerate(jobs.values()):
            job.start_running(0.0, [i], [64])
            job.advance(1000 * (i + 1), 5.0)
        ctx = make_context(jobs, num_gpus=8)
        current = Schedule(roster=ctx.roster, genome=np.array([0, 0, 1, 2, 2, 2, IDLE, 1]))
        scalar = oracle.initial_population(ctx, size=5, current=current, seed=3)
        genomes = initial_population_genomes(ctx, size=5, current=current, seed=3)
        assert np.array_equal(genomes, np.stack([member.genome for member in scalar]))

    def test_unique_uses_shared_helper(self):
        """The matrix dedup keeps the first of equal genomes, like the oracle's."""
        jobs = make_jobs(2)
        ctx = make_context(jobs, num_gpus=4)
        a = Schedule(roster=ctx.roster, genome=np.array([0, 1, IDLE, IDLE]))
        b = Schedule(roster=ctx.roster, genome=np.array([0, 1, IDLE, IDLE]))
        c = Schedule(roster=ctx.roster, genome=np.array([1, 0, IDLE, IDLE]))
        genomes = np.stack([a.genome, b.genome, c.genome])
        assert first_seen_rows(genomes).tolist() == [0, 2]
        assert oracle.unique_schedules([a, b, c]) == [a, c]

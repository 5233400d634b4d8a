"""Tests for repro.core.evolution (the search loop of Fig. 5)."""

import numpy as np
import pytest

from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.schedule import Schedule
from tests._core_helpers import make_context, make_jobs
from tests._evolution_oracle import candidate_score
from tests._evolution_oracle import idle_gpus, schedule_from_assignment, waiting_jobs


class TestEvolutionConfig:
    def test_defaults_resolve(self):
        config = EvolutionConfig()
        # The paper's K = cluster size up to the 64-GPU Longhorn scale;
        # beyond that the default stays bounded by the operator cost.
        assert config.resolved_population_size(64) == 64
        assert config.resolved_population_size(128) == 64
        assert config.resolved_population_size(8) == 8
        assert config.resolved_crossover_pairs(16) == 8

    def test_explicit_values_win(self):
        config = EvolutionConfig(population_size=5, crossover_pairs=2)
        assert config.resolved_population_size(64) == 5
        assert config.resolved_crossover_pairs(5) == 2

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            EvolutionConfig(population_size=0)
        with pytest.raises(ValueError):
            EvolutionConfig(mutation_rate=1.5)
        with pytest.raises(ValueError):
            EvolutionConfig(iterations_per_invocation=0)


class TestEvolutionarySearch:
    def _context_with_progress(self, num_jobs=3, num_gpus=8):
        jobs = make_jobs(num_jobs)
        for i, job in enumerate(jobs.values()):
            job.start_running(0.0, [i], [64])
            job.advance(1000 * (i + 1), 5.0)
        return make_context(jobs, num_gpus=num_gpus)

    def test_step_returns_candidate_and_score(self):
        ctx = self._context_with_progress()
        search = EvolutionarySearch(EvolutionConfig(population_size=6), seed=1)
        best, score = search.step(ctx)
        assert isinstance(best, Schedule)
        assert np.isfinite(score)
        assert search.best_candidate is best
        assert search.population_size <= 6

    def test_population_persists_across_steps(self):
        ctx = self._context_with_progress()
        search = EvolutionarySearch(EvolutionConfig(population_size=6), seed=1)
        search.step(ctx)
        first_iterations = search.iterations_run
        search.step(ctx)
        assert search.iterations_run == first_iterations + 1

    def test_roster_change_reindexes_population(self):
        ctx = self._context_with_progress(num_jobs=3)
        search = EvolutionarySearch(EvolutionConfig(population_size=4), seed=1)
        search.step(ctx)
        smaller = {k: v for k, v in ctx.jobs.items() if k != "job-2"}
        ctx2 = make_context(smaller, num_gpus=8)
        best, _ = search.step(ctx2)
        assert "job-2" not in best.placed_jobs()

    def test_best_candidate_never_wastes_gpus_while_jobs_wait(self):
        """Eq. 4's spirit: a GPU is never idle while some job could use it."""
        ctx = self._context_with_progress(num_jobs=3, num_gpus=8)
        search = EvolutionarySearch(EvolutionConfig(population_size=8), seed=2)
        best, _ = search.step(ctx)
        if idle_gpus(best):
            assert not waiting_jobs(best)
        # The cluster is never left empty.
        assert len(best.placed_jobs()) >= 1

    def test_multiple_iterations_per_invocation(self):
        ctx = self._context_with_progress()
        search = EvolutionarySearch(
            EvolutionConfig(population_size=4, iterations_per_invocation=3), seed=1
        )
        search.step(ctx)
        assert search.iterations_run == 3

    def test_operator_ablation_switches(self):
        ctx = self._context_with_progress()
        config = EvolutionConfig(
            population_size=4,
            enable_crossover=False,
            enable_mutation=False,
            enable_reorder=False,
        )
        search = EvolutionarySearch(config, seed=1)
        best, score = search.step(ctx)
        assert isinstance(best, Schedule)

    def test_search_improves_or_matches_greedy_seed(self):
        """The evolved best candidate is no worse than the deployed schedule."""
        ctx = self._context_with_progress(num_jobs=4, num_gpus=8)
        current = schedule_from_assignment(
            ctx.roster, 8, {0: "job-0", 1: "job-1", 2: "job-2", 3: "job-3"}
        )
        search = EvolutionarySearch(EvolutionConfig(population_size=8), seed=3)
        best, _ = search.step(ctx, current=current)
        progress = {j: 0.5 for j in ctx.roster}
        table = ctx.throughput_table
        assert candidate_score(best, ctx.jobs, progress, table) <= candidate_score(
            current, ctx.jobs, progress, table
        ) * 1.05

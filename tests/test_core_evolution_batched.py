"""Differential parity: the generation kernel vs the scalar oracle.

The kernel (:mod:`repro.core.evolution_batched` over
:mod:`repro.core.scoring_incremental`) must be *bit-compatible* with the
scalar reference in ``tests/_evolution_oracle.py``: identical genomes
out of every operator, identical RNG consumption, identical scores and
selection order per generation, and identical full simulation
trajectories — across randomised job mixes, capacities and seeds,
including never-started jobs and zero-throughput (``inf`` / ``nan``
utilisation) corners.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tests._evolution_oracle as oracle
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.evolution_batched import (
    _crossover_children,
    _crossover_draws,
    _mutants,
    _mutation_draws,
    first_seen_rows,
    reindex_genomes,
    run_generation,
)
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import population_gpu_counts
from repro.core.scoring_incremental import IncrementalScoringEngine
from repro.experiments.backends import simulate_trace
from repro.jobs.throughput import ThroughputTable
from repro.sim.simulator import SimulationConfig
from repro.workload.trace import TraceConfig, TraceGenerator
from tests._core_helpers import (
    kernel_fill,
    kernel_refresh,
    kernel_reorder,
    make_context,
    make_jobs,
    random_genomes,
    table_from_matrix,
    table_workload,
)
from tests._evolution_oracle import empty_schedule


def _rows(schedules):
    return np.stack([schedule.genome for schedule in schedules])


CASES = [(8, 3, 0), (8, 5, 1), (16, 7, 2), (16, 12, 3), (32, 20, 4)]


# --- per-operator parity -------------------------------------------------------------------------


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_refresh_bit_identical(num_gpus, num_jobs, seed):
    never = ("job-0", "job-1") if seed % 2 else ()
    roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed, never)
    genomes = random_genomes(roster, num_gpus, 12, seed + 100)
    scalar = _rows(
        oracle.refresh(Schedule(roster=roster, genome=g), fresh_ctx(7)) for g in genomes
    )
    refreshed, _ = kernel_refresh(genomes, fresh_ctx(7))
    assert np.array_equal(scalar, refreshed)


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_fill_idle_gpus_bit_identical(num_gpus, num_jobs, seed):
    roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed)
    genomes = random_genomes(roster, num_gpus, 12, seed + 200, idle_fraction=0.5)
    scalar = _rows(
        oracle.fill_idle_gpus(Schedule(roster=roster, genome=g), fresh_ctx(3))
        for g in genomes
    )
    filled, _ = kernel_fill(genomes, fresh_ctx(3))
    assert np.array_equal(scalar, filled)


def test_fill_parity_on_zero_throughput_curves():
    """inf/nan utilisation deltas: the kernel's argmin must reproduce the
    scalar scan's first-strictly-smaller tie-breaking exactly."""
    jobs = make_jobs(3)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i], [64])
        job.advance(1000 * (i + 1), 5.0)
    roster = tuple(sorted(jobs))
    num_gpus = 8
    # job-0 never achieves throughput (all-zero curve -> inf terms);
    # job-1 healthy; job-2 zero beyond 2 GPUs.
    matrix = np.zeros((3, num_gpus + 1))
    matrix[1, 1:] = np.linspace(100.0, 220.0, num_gpus)
    matrix[2, 1:3] = [80.0, 120.0]
    ctx = replace(
        make_context(jobs, num_gpus=num_gpus),
        throughput_table=table_from_matrix(roster, matrix),
    )
    genomes = random_genomes(roster, num_gpus, 16, seed=9, idle_fraction=0.6)
    scalar = _rows(
        oracle.fill_idle_gpus(Schedule(roster=roster, genome=g), ctx) for g in genomes
    )
    filled, _ = kernel_fill(genomes, ctx)
    assert np.array_equal(scalar, filled)


@pytest.mark.parametrize("seed", range(4))
def test_reorder_bit_identical(seed):
    roster = tuple(f"job-{i}" for i in range(6))
    genomes = random_genomes(roster, 17, 20, seed)
    scalar = _rows(oracle.reorder(Schedule(roster=roster, genome=g)) for g in genomes)
    reordered, _ = kernel_reorder(genomes, len(roster), np.arange(17) // 4)
    assert np.array_equal(scalar, reordered)


def test_reindex_matches_schedule_reindexed():
    old_roster = ("job-0", "job-1", "job-2", "job-3")
    new_roster = ("job-1", "job-3", "job-4")
    genomes = random_genomes(old_roster, 10, 8, seed=5)
    scalar = _rows(
        Schedule(roster=old_roster, genome=g).reindexed(new_roster) for g in genomes
    )
    assert np.array_equal(scalar, reindex_genomes(genomes, old_roster, new_roster))


def test_crossover_and_mutation_consume_identical_rng_stream():
    """The kernel's crossover and mutation draws replay the scalar calls."""
    num_gpus, num_jobs = 16, 6
    roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed=11)
    genomes, _ = kernel_refresh(random_genomes(roster, num_gpus, 8, seed=42), fresh_ctx(0))
    schedules = [Schedule(roster=roster, genome=g) for g in genomes]

    ctx_a, ctx_b = fresh_ctx(77), fresh_ctx(77)
    scalar_children = []
    for _ in range(5):
        i, j = ctx_a.rng.choice(len(schedules), size=2, replace=False)
        scalar_children += oracle.uniform_crossover(
            schedules[int(i)], schedules[int(j)], rng=ctx_a.rng
        )
    scalar_mutants = [
        oracle.uniform_mutation(
            schedules[int(ctx_a.rng.integers(0, len(schedules)))], ctx_a, 0.4
        )
        for _ in range(6)
    ]

    children = _crossover_children(genomes, 5, ctx_b.rng)
    members, preempted = _mutation_draws(
        population_gpu_counts(genomes, num_jobs), 6, 0.4, ctx_b.rng
    )
    mutants, _ = kernel_fill(_mutants(genomes, members, preempted), ctx_b)

    assert np.array_equal(_rows(scalar_children), children)
    assert np.array_equal(_rows(scalar_mutants), mutants)
    # Both paths must leave the shared generator in the same state.
    assert ctx_a.rng.integers(2**31) == ctx_b.rng.integers(2**31)


@pytest.mark.parametrize("num_rows", [2, 3, 64, 65, 193])
@pytest.mark.parametrize("num_gpus", [1, 16, 64])
@pytest.mark.parametrize("half_word", [False, True], ids=["aligned", "half-word"])
def test_crossover_draws_replay_choice_and_mask_calls(num_rows, num_gpus, half_word):
    """One ``integers`` call makes the per-pair ``choice`` + mask draws.

    With ``half_word`` an odd number of uint32 draws precedes the
    crossover, so PCG64 holds a buffered half word that both streams
    must consume first.
    """
    pairs = 32
    for seed in range(20):
        scalar_rng = np.random.default_rng(seed)
        kernel_rng = np.random.default_rng(seed)
        if half_word:
            for rng in (scalar_rng, kernel_rng):
                rng.integers(0, 2, size=3)
                assert rng.bit_generator.state["has_uint32"] == 1
        scalar_picks = np.empty((pairs, 2), dtype=np.int64)
        scalar_masks = np.empty((pairs, num_gpus), dtype=bool)
        for pair in range(pairs):
            scalar_picks[pair] = scalar_rng.choice(num_rows, size=2, replace=False)
            scalar_masks[pair] = scalar_rng.integers(0, 2, size=num_gpus)

        picks, masks = _crossover_draws(num_rows, pairs, num_gpus, kernel_rng)

        assert np.array_equal(picks, scalar_picks)
        assert np.array_equal(masks, scalar_masks)
        assert kernel_rng.bit_generator.state == scalar_rng.bit_generator.state


# --- generation-level parity ---------------------------------------------------------------------


def _oracle_generation(genomes, ctx, config):
    """The oracle's generation: (survivor matrix, scores, distinct pool size)."""
    population = [Schedule(roster=ctx.roster, genome=g) for g in genomes]
    survivors, pool_size = oracle.generation(population, ctx, config)
    scores = np.array([score for _, score in survivors])
    return _rows(s for s, _ in survivors), scores, pool_size


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_generation_bit_identical(num_gpus, num_jobs, seed):
    """One full generation: survivors, scores, selection order, RNG state."""
    never = ("job-2",) if seed % 2 else ()
    roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed, never)
    config = EvolutionConfig(population_size=min(num_gpus, 12))
    genomes, _ = kernel_refresh(
        random_genomes(roster, num_gpus, config.population_size, seed + 300),
        fresh_ctx(0),
    )
    ctx_a, ctx_b = fresh_ctx(seed + 1), fresh_ctx(seed + 1)
    scalar_matrix, scalar_scores, scalar_pool = _oracle_generation(genomes, ctx_a, config)
    result = run_generation(genomes, ctx_b, config, IncrementalScoringEngine())
    assert np.array_equal(scalar_matrix, result.population)
    assert np.array_equal(scalar_scores, result.scores)
    assert scalar_pool == result.pool_size
    assert np.array_equal(scalar_matrix[0], result.best_genome)
    assert scalar_scores[0] == result.best_score
    assert ctx_a.rng.integers(2**31) == ctx_b.rng.integers(2**31)


@pytest.mark.parametrize(
    "config",
    [
        EvolutionConfig(population_size=8),
        EvolutionConfig(population_size=8, enable_crossover=False),
        EvolutionConfig(population_size=8, enable_mutation=False),
        EvolutionConfig(population_size=8, enable_reorder=False),
        EvolutionConfig(population_size=8, mutation_rate=0.9, crossover_pairs=2),
    ],
    ids=["default", "no-crossover", "no-mutation", "no-reorder", "hot-mutation"],
)
def test_generation_parity_across_ablation_switches(config):
    roster, fresh_ctx = table_workload(16, 6, seed=21)
    genomes, _ = kernel_refresh(random_genomes(roster, 16, 8, 55), fresh_ctx(0))
    ctx_a, ctx_b = fresh_ctx(13), fresh_ctx(13)
    scalar_matrix, scalar_scores, _ = _oracle_generation(genomes, ctx_a, config)
    result = run_generation(genomes, ctx_b, config, IncrementalScoringEngine())
    assert np.array_equal(scalar_matrix, result.population)
    assert np.array_equal(scalar_scores, result.scores)


def _assert_searches_agree(num_gpus, num_jobs, seed, steps, config=None):
    """Kernel and oracle searches from one seed: same winners and populations."""
    roster, fresh_ctx = table_workload(num_gpus, num_jobs, seed)
    scalar = oracle.OracleSearch(config, seed=99)
    kernel = EvolutionarySearch(config, seed=99)
    ctx_a, ctx_b = fresh_ctx(seed + 40), fresh_ctx(seed + 40)
    current = empty_schedule(roster, num_gpus)
    for step in range(steps):
        best_a, score_a = scalar.step(ctx_a, current=current if step == 0 else None)
        best_b, score_b = kernel.step(ctx_b, current=current if step == 0 else None)
        assert np.array_equal(best_a.genome, best_b.genome), f"step {step}"
        assert score_a == score_b
        assert np.array_equal(scalar.genomes, kernel._genomes)


@pytest.mark.parametrize("num_gpus,num_jobs,seed", [(8, 4, 0), (16, 9, 1), (16, 14, 2)])
def test_search_trajectories_identical_across_steps(num_gpus, num_jobs, seed):
    """Multi-step EvolutionarySearch: populations and winners stay equal."""
    _assert_searches_agree(num_gpus, num_jobs, seed, steps=5)


def test_search_parity_at_paper_scale():
    """The benchmark-scale probe: 64 GPUs, 50 jobs, K = 64, over two steps."""
    _assert_searches_agree(64, 50, seed=1, steps=2)


def test_roster_change_reindexes_identically():
    """A job completing between events: both searches re-express and
    re-seed the population the same way."""
    roster, fresh_ctx = table_workload(16, 5, seed=31)
    scalar = oracle.OracleSearch(EvolutionConfig(), seed=7)
    kernel = EvolutionarySearch(EvolutionConfig(), seed=7)
    ctx_a, ctx_b = fresh_ctx(50), fresh_ctx(50)
    scalar.step(ctx_a)
    kernel.step(ctx_b)

    smaller_jobs = {j: job for j, job in ctx_a.jobs.items() if j != "job-3"}
    smaller_roster = tuple(sorted(smaller_jobs))

    def shrunk(ctx):
        return replace(
            ctx,
            jobs=smaller_jobs,
            roster=smaller_roster,
            throughput_table=ThroughputTable(
                ctx.throughput_table._model, smaller_jobs, ctx.limits, 16, roster=smaller_roster
            ),
        )

    current = empty_schedule(smaller_roster, 16)
    best_a, score_a = scalar.step(shrunk(ctx_a), current=current)
    best_b, score_b = kernel.step(shrunk(ctx_b), current=current)
    assert np.array_equal(best_a.genome, best_b.genome)
    assert score_a == score_b
    assert "job-3" not in best_b.placed_jobs()
    assert np.array_equal(scalar.genomes, kernel._genomes)


def test_unique_rows_matches_unique_schedules():
    """The kernel's selection dedup keeps the oracle's distinct candidates."""
    roster = tuple(f"job-{i}" for i in range(4))
    rng = np.random.default_rng(17)
    genomes = rng.integers(-1, 4, size=(30, 6)).astype(np.int64)
    genomes[10:20] = genomes[:10]  # force duplicates
    scalar = oracle.unique_schedules([Schedule(roster=roster, genome=g) for g in genomes])
    assert np.array_equal(_rows(scalar), genomes[first_seen_rows(genomes)])


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=1, max_value=12),
    num_jobs=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_first_seen_rows_matches_unique_axis0(rows, width, num_jobs, seed):
    """Byte-keyed dedup returns the first occurrence of every distinct row,
    exactly like the sorted ``return_index`` of ``np.unique(axis=0)``."""
    rng = np.random.default_rng(seed)
    # Few distinct rows drawn with replacement: duplicates are the norm,
    # and IDLE genes (-1) appear in most rows.
    distinct = rng.integers(IDLE, num_jobs, size=(max(1, rows // 3), width))
    genomes = distinct[rng.integers(0, distinct.shape[0], size=rows)].astype(np.int64)
    _, first_seen = np.unique(genomes, axis=0, return_index=True)
    assert np.array_equal(first_seen_rows(genomes), np.sort(first_seen))


# --- full-simulation parity ----------------------------------------------------------------------


def _simulate(num_gpus, num_jobs, use_oracle, max_time=None):
    trace = TraceGenerator(
        TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0), seed=2021
    ).generate()
    simulation = SimulationConfig() if max_time is None else SimulationConfig(max_time=max_time)
    scheduler = ONESScheduler(ONESConfig(), seed=2021)
    if use_oracle:
        oracle.use_oracle_search(scheduler)
    return simulate_trace(scheduler, trace, num_gpus, simulation)


def _assert_same_trajectory(scalar_result, kernel_result):
    assert scalar_result.completed == kernel_result.completed
    assert scalar_result.makespan == kernel_result.makespan
    assert scalar_result.events_processed == kernel_result.events_processed
    assert scalar_result.num_reconfigurations == kernel_result.num_reconfigurations
    assert scalar_result.incomplete == kernel_result.incomplete


@pytest.mark.parametrize("num_gpus,num_jobs", [(8, 6), (16, 10)])
def test_full_simulation_trajectory_identical(num_gpus, num_jobs):
    """ONES end to end: kernel and oracle runs produce the same events,
    schedules, per-job metrics and makespan over a multi-event trace."""
    _assert_same_trajectory(
        _simulate(num_gpus, num_jobs, use_oracle=True),
        _simulate(num_gpus, num_jobs, use_oracle=False),
    )


def test_full_simulation_parity_at_paper_scale():
    """The 64-GPU / 40-job benchmark trace, over its first ten simulated minutes."""
    scalar = _simulate(64, 40, use_oracle=True, max_time=600.0)
    kernel = _simulate(64, 40, use_oracle=False, max_time=600.0)
    _assert_same_trajectory(scalar, kernel)
    assert kernel.completed

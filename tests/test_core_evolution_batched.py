"""Differential parity: the batched evolution engine vs the scalar reference.

The batched operators (:mod:`repro.core.evolution_batched`) must be
*bit-compatible* with the scalar operators of
:mod:`repro.core.operators` / :mod:`repro.core.evolution`: identical
genomes out of every operator, identical RNG consumption, identical
scores and selection order per generation, and identical full
simulation trajectories — across randomised job mixes, capacities and
seeds, including never-started jobs and zero-throughput (``inf`` /
``nan`` utilisation) corners.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.topology import make_longhorn_cluster
from repro.core.evolution import EvolutionConfig, EvolutionarySearch
from repro.core.evolution_batched import (
    fill_idle_population,
    refresh_population,
    reindex_genomes,
    reorder_population,
    run_generation,
    first_seen_rows,
    unique_rows,
)
from repro.core.operators import (
    fill_idle_gpus,
    refresh,
    reorder,
    uniform_crossover,
    uniform_mutation,
)
from repro.core.ones_scheduler import ONESConfig, ONESScheduler
from repro.core.schedule import IDLE, Schedule, stack_genomes, unique_schedules
from repro.core.scoring import select_top_k
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import generate_trace, run_single
from repro.jobs.throughput import ThroughputModel, ThroughputTable
from repro.workload.trace import TraceConfig
from tests._core_helpers import make_context, make_jobs


def _table_workload(num_gpus, num_jobs, seed, never_started=(), running_fraction=0.8):
    """A randomised cluster snapshot plus a factory for table-backed contexts.

    The factory builds a fresh :class:`ThroughputTable` and RNG per call
    so the scalar and batched paths can be driven from identical state.
    """
    jobs = make_jobs(num_jobs)
    rng = np.random.default_rng(seed)
    for i, (job_id, job) in enumerate(jobs.items()):
        if job_id in never_started or rng.random() > running_fraction:
            continue
        job.start_running(0.0, [i % num_gpus], [64])
        job.advance(int(rng.integers(500, 5000)), 10.0)
    model = ThroughputModel(make_longhorn_cluster(num_gpus))
    limits = {job_id: job.spec.base_batch * 4 for job_id, job in jobs.items()}
    roster = tuple(sorted(jobs))
    base = make_context(
        jobs, num_gpus=num_gpus, limits=limits, seed=seed, never_started=never_started
    )

    def fresh_ctx(rng_seed):
        table = ThroughputTable(model, jobs, limits, num_gpus, roster=roster)
        return replace(
            base,
            throughput_fn=None,
            throughput_table=table,
            rng=np.random.default_rng(rng_seed),
        )

    return roster, fresh_ctx


def _random_genomes(roster, num_gpus, rows, seed, idle_fraction=0.35):
    rng = np.random.default_rng(seed)
    genomes = rng.integers(0, len(roster), size=(rows, num_gpus)).astype(np.int64)
    genomes[rng.random(genomes.shape) < idle_fraction] = IDLE
    return genomes


CASES = [(8, 3, 0), (8, 5, 1), (16, 7, 2), (16, 12, 3), (32, 20, 4)]


# --- per-operator parity -------------------------------------------------------------------------


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_refresh_bit_identical(num_gpus, num_jobs, seed):
    never = ("job-0", "job-1") if seed % 2 else ()
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed, never)
    genomes = _random_genomes(roster, num_gpus, 12, seed + 100)
    scalar = np.stack(
        [
            refresh(Schedule(roster=roster, genome=g), fresh_ctx(7)).genome
            for g in genomes
        ]
    )
    batched = refresh_population(genomes, fresh_ctx(7))
    assert np.array_equal(scalar, batched)


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_fill_idle_gpus_bit_identical(num_gpus, num_jobs, seed):
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
    genomes = _random_genomes(roster, num_gpus, 12, seed + 200, idle_fraction=0.5)
    scalar = np.stack(
        [
            fill_idle_gpus(Schedule(roster=roster, genome=g), fresh_ctx(3)).genome
            for g in genomes
        ]
    )
    batched = fill_idle_population(genomes, fresh_ctx(3))
    assert np.array_equal(scalar, batched)


def test_fill_parity_on_zero_throughput_curves():
    """inf/nan utilisation deltas: the batched argmin must reproduce the
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
    table = ThroughputTable.from_matrix(roster, matrix)
    base = make_context(jobs, num_gpus=num_gpus)
    ctx_scalar = replace(base, throughput_fn=None, throughput_table=table)
    ctx_batched = replace(base, throughput_fn=None, throughput_table=table)
    genomes = _random_genomes(roster, num_gpus, 16, seed=9, idle_fraction=0.6)
    scalar = np.stack(
        [
            fill_idle_gpus(Schedule(roster=roster, genome=g), ctx_scalar).genome
            for g in genomes
        ]
    )
    batched = fill_idle_population(genomes, ctx_batched)
    assert np.array_equal(scalar, batched)


@pytest.mark.parametrize("seed", range(4))
def test_reorder_bit_identical(seed):
    roster = tuple(f"job-{i}" for i in range(6))
    genomes = _random_genomes(roster, 17, 20, seed)
    scalar = np.stack(
        [reorder(Schedule(roster=roster, genome=g)).genome for g in genomes]
    )
    assert np.array_equal(scalar, reorder_population(genomes))


def test_reindex_matches_schedule_reindexed():
    old_roster = ("job-0", "job-1", "job-2", "job-3")
    new_roster = ("job-1", "job-3", "job-4")
    genomes = _random_genomes(old_roster, 10, 8, seed=5)
    scalar = np.stack(
        [
            Schedule(roster=old_roster, genome=g).reindexed(new_roster).genome
            for g in genomes
        ]
    )
    assert np.array_equal(scalar, reindex_genomes(genomes, old_roster, new_roster))


def test_crossover_and_mutation_consume_identical_rng_stream():
    """Per-pair/member draws in the batched loop replay the scalar calls."""
    num_gpus, num_jobs = 16, 6
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed=11)
    genomes = refresh_population(
        _random_genomes(roster, num_gpus, 8, seed=42), fresh_ctx(0)
    )
    schedules = [Schedule(roster=roster, genome=g) for g in genomes]

    ctx_a, ctx_b = fresh_ctx(77), fresh_ctx(77)
    scalar_children = []
    for _ in range(5):
        i, j = ctx_a.rng.choice(len(schedules), size=2, replace=False)
        child_a, child_b = uniform_crossover(
            schedules[int(i)], schedules[int(j)], rng=ctx_a.rng
        )
        scalar_children += [child_a.genome, child_b.genome]
    scalar_mutants = [
        uniform_mutation(schedules[int(ctx_a.rng.integers(0, len(schedules)))], ctx_a, 0.4).genome
        for _ in range(6)
    ]

    batched_children = []
    for _ in range(5):
        i, j = ctx_b.rng.choice(len(genomes), size=2, replace=False)
        mask = ctx_b.rng.integers(0, 2, size=num_gpus).astype(bool)
        batched_children.append(np.where(mask, genomes[int(i)], genomes[int(j)]))
        batched_children.append(np.where(mask, genomes[int(j)], genomes[int(i)]))
    batched_mutants = []
    for _ in range(6):
        member = int(ctx_b.rng.integers(0, len(genomes)))
        row = genomes[member]
        placed = np.unique(row[row != IDLE])
        coins = ctx_b.rng.random(placed.size)
        doomed = placed[coins < 0.4]
        batched_mutants.append(np.where(np.isin(row, doomed), IDLE, row))
    batched_mutants = fill_idle_population(np.stack(batched_mutants), ctx_b)

    assert np.array_equal(np.stack(scalar_children), np.stack(batched_children))
    assert np.array_equal(np.stack(scalar_mutants), batched_mutants)
    # Both paths must leave the shared generator in the same state.
    assert ctx_a.rng.integers(2**31) == ctx_b.rng.integers(2**31)


# --- generation-level parity ---------------------------------------------------------------------


def _scalar_generation(genomes, ctx, config):
    """The scalar `_iterate` body, returning (survivor matrix, scores, pool)."""
    roster = ctx.roster
    size = config.resolved_population_size(ctx.num_gpus)
    refreshed = [refresh(Schedule(roster=roster, genome=g), ctx) for g in genomes]
    candidates = list(refreshed)
    if config.enable_crossover and len(refreshed) >= 2:
        for _ in range(config.resolved_crossover_pairs(size)):
            i, j = ctx.rng.choice(len(refreshed), size=2, replace=False)
            child_a, child_b = uniform_crossover(
                refreshed[int(i)], refreshed[int(j)], rng=ctx.rng
            )
            candidates.append(fill_idle_gpus(child_a, ctx))
            candidates.append(fill_idle_gpus(child_b, ctx))
    if config.enable_mutation:
        for _ in range(size):
            idx = int(ctx.rng.integers(0, len(refreshed)))
            candidates.append(uniform_mutation(refreshed[idx], ctx, config.mutation_rate))
    if config.enable_reorder:
        candidates = [reorder(c) for c in candidates]
    pool = unique_schedules(candidates)
    survivors = select_top_k(
        candidates,
        ctx.jobs,
        ctx.distributions,
        ctx.throughput_fn,
        k=size,
        rng=ctx.rng,
        table=ctx.throughput_table,
    )
    matrix = np.stack([s.genome for s, _ in survivors])
    scores = np.array([score for _, score in survivors])
    return matrix, scores, len(pool)


@pytest.mark.parametrize("num_gpus,num_jobs,seed", CASES)
def test_generation_bit_identical(num_gpus, num_jobs, seed):
    """One full generation: survivors, scores, selection order, pool size."""
    never = ("job-2",) if seed % 2 else ()
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed, never)
    config = EvolutionConfig(population_size=min(num_gpus, 12))
    genomes = refresh_population(
        _random_genomes(roster, num_gpus, config.population_size, seed + 300),
        fresh_ctx(0),
    )
    ctx_a, ctx_b = fresh_ctx(seed + 1), fresh_ctx(seed + 1)
    scalar_matrix, scalar_scores, scalar_pool = _scalar_generation(
        genomes, ctx_a, config
    )
    result = run_generation(genomes, ctx_b, config)
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
    roster, fresh_ctx = _table_workload(16, 6, seed=21)
    genomes = refresh_population(_random_genomes(roster, 16, 8, 55), fresh_ctx(0))
    ctx_a, ctx_b = fresh_ctx(13), fresh_ctx(13)
    scalar_matrix, scalar_scores, _ = _scalar_generation(genomes, ctx_a, config)
    result = run_generation(genomes, ctx_b, config)
    assert np.array_equal(scalar_matrix, result.population)
    assert np.array_equal(scalar_scores, result.scores)


@pytest.mark.parametrize("num_gpus,num_jobs,seed", [(8, 4, 0), (16, 9, 1), (16, 14, 2)])
def test_search_trajectories_identical_across_steps(num_gpus, num_jobs, seed):
    """Multi-step EvolutionarySearch: populations and winners stay equal."""
    roster, fresh_ctx = _table_workload(num_gpus, num_jobs, seed)
    scalar = EvolutionarySearch(EvolutionConfig(batched_operators=False), seed=99)
    batched = EvolutionarySearch(EvolutionConfig(batched_operators=True), seed=99)
    ctx_a, ctx_b = fresh_ctx(seed + 40), fresh_ctx(seed + 40)
    current = Schedule.empty(roster, num_gpus)
    for step in range(5):
        best_a, score_a = scalar.step(ctx_a, current=current if step == 0 else None)
        best_b, score_b = batched.step(ctx_b, current=current if step == 0 else None)
        assert np.array_equal(best_a.genome, best_b.genome), f"step {step}"
        assert score_a == score_b
        assert np.array_equal(
            stack_genomes(scalar.population.members),
            stack_genomes(batched.population.members),
        )


def test_roster_change_reindexes_identically():
    """A job completing between events: both paths re-express and
    re-seed the population the same way."""
    roster, fresh_ctx = _table_workload(16, 5, seed=31)
    scalar = EvolutionarySearch(EvolutionConfig(batched_operators=False), seed=7)
    batched = EvolutionarySearch(EvolutionConfig(batched_operators=True), seed=7)
    ctx_a, ctx_b = fresh_ctx(50), fresh_ctx(50)
    scalar.step(ctx_a)
    batched.step(ctx_b)

    smaller_jobs = {j: job for j, job in ctx_a.jobs.items() if j != "job-3"}
    def shrunk(ctx):
        return replace(
            ctx,
            jobs=smaller_jobs,
            roster=tuple(sorted(smaller_jobs)),
            throughput_table=ThroughputTable(
                ctx.throughput_table._model,
                smaller_jobs,
                ctx.limits,
                16,
                roster=tuple(sorted(smaller_jobs)),
            ),
            throughput_fn=None,
        )

    current = Schedule.empty(tuple(sorted(smaller_jobs)), 16)
    best_a, score_a = scalar.step(shrunk(ctx_a), current=current)
    best_b, score_b = batched.step(shrunk(ctx_b), current=current)
    assert np.array_equal(best_a.genome, best_b.genome)
    assert score_a == score_b
    assert "job-3" not in best_b.placed_jobs()
    assert np.array_equal(
        stack_genomes(scalar.population.members),
        stack_genomes(batched.population.members),
    )


def test_batched_flag_falls_back_to_scalar_without_table():
    """Contexts carrying only a generic throughput_fn use the reference
    operators; the flag changes nothing."""
    jobs = make_jobs(4)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i], [64])
        job.advance(800 * (i + 1), 5.0)
    ctx_a = make_context(jobs, num_gpus=8, seed=3)
    ctx_b = make_context(jobs, num_gpus=8, seed=3)
    assert ctx_a.throughput_table is None
    on = EvolutionarySearch(EvolutionConfig(batched_operators=True), seed=5)
    off = EvolutionarySearch(EvolutionConfig(batched_operators=False), seed=5)
    best_on, score_on = on.step(ctx_a)
    best_off, score_off = off.step(ctx_b)
    assert np.array_equal(best_on.genome, best_off.genome)
    assert score_on == score_off


def test_mid_run_handoff_from_scalar_population_to_batched():
    """A table-less event builds a scalar population; the next table-backed
    event must lift it onto the genome matrix without changing the
    trajectory (vs a search that stayed scalar throughout)."""
    jobs = make_jobs(5)
    for i, job in enumerate(jobs.values()):
        job.start_running(0.0, [i], [64])
        job.advance(900 * (i + 1), 5.0)
    roster, fresh_ctx = _table_workload(8, 5, seed=61)

    hybrid = EvolutionarySearch(EvolutionConfig(batched_operators=True), seed=5)
    scalar = EvolutionarySearch(EvolutionConfig(batched_operators=False), seed=5)
    # Event 1: no throughput table -> both run the scalar reference.
    ctx_a = make_context(jobs, num_gpus=8, seed=3)
    ctx_b = make_context(jobs, num_gpus=8, seed=3)
    assert ctx_a.throughput_table is None
    hybrid.step(ctx_a)
    scalar.step(ctx_b)
    # Event 2: table present -> hybrid lifts its population to the matrix.
    ctx_c, ctx_d = fresh_ctx(19), fresh_ctx(19)
    best_h, score_h = hybrid.step(ctx_c)
    best_s, score_s = scalar.step(ctx_d)
    assert np.array_equal(best_h.genome, best_s.genome)
    assert score_h == score_s
    assert np.array_equal(
        stack_genomes(hybrid.population.members),
        stack_genomes(scalar.population.members),
    )


def test_unique_rows_matches_unique_schedules():
    roster = tuple(f"job-{i}" for i in range(4))
    rng = np.random.default_rng(17)
    genomes = rng.integers(-1, 4, size=(30, 6)).astype(np.int64)
    genomes[10:20] = genomes[:10]  # force duplicates
    scalar = unique_schedules([Schedule(roster=roster, genome=g) for g in genomes])
    batched = unique_rows(genomes)
    assert np.array_equal(np.stack([s.genome for s in scalar]), batched)


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
    assert np.array_equal(unique_rows(genomes), genomes[np.sort(first_seen)])


# --- full-simulation parity ----------------------------------------------------------------------


@pytest.mark.parametrize("num_gpus,num_jobs", [(8, 6), (16, 10)])
def test_full_simulation_trajectory_identical(num_gpus, num_jobs):
    """ONES end to end: batched and scalar runs produce the same events,
    schedules, per-job metrics and makespan over a multi-event trace."""
    config = ExperimentConfig(
        num_gpus=num_gpus,
        trace=TraceConfig(num_jobs=num_jobs, arrival_rate=1.0 / 30.0),
        seed=2021,
    )
    trace = generate_trace(config)

    def run(batched):
        scheduler = ONESScheduler(
            ONESConfig(evolution=EvolutionConfig(batched_operators=batched)),
            seed=config.seed,
        )
        return run_single(scheduler, trace, config)

    scalar_result = run(False)
    batched_result = run(True)
    assert scalar_result.completed == batched_result.completed
    assert scalar_result.makespan == batched_result.makespan
    assert scalar_result.events_processed == batched_result.events_processed
    assert scalar_result.num_reconfigurations == batched_result.num_reconfigurations
    assert scalar_result.incomplete == batched_result.incomplete

"""The generation kernel: one evolution generation over the genome matrix.

One generation of the search (Fig. 5) — refresh, idle-GPU fill, uniform
crossover + repair, uniform mutation, reorder, elitist selection by
Algorithm 1 — runs as array expressions over the population's
``(K, num_gpus)`` int64 genome matrix.  The Eq. 8 scoring inputs (GPU
counts and placement locality per candidate and job) are not re-derived
each generation: a :class:`~repro.core.scoring_incremental.ScoreDecomposition`
is kept up to date through every operator and reused across events by
the search's
:class:`~repro.core.scoring_incremental.IncrementalScoringEngine`.  No
intermediate :class:`~repro.core.schedule.Schedule` objects are
materialised; the single winning candidate per scheduler event is
rebuilt through :meth:`Schedule.from_validated_genome`, which skips
``__post_init__`` re-validation on internally-produced genomes.

**Differential contract.**  The kernel is *move-for-move and bit-for-bit
identical* to the scalar reference in ``tests/_evolution_oracle.py``,
which applies the operators of §3.2.2 to one ``Schedule`` at a time:

* identical genomes out of every operator for identical genomes in,
* identical RNG consumption — stochastic draws (crossover parent pairs
  and masks, mutation victim picks and per-job preemption coins, the
  shared progress samples of Algorithm 1) are issued in exactly the
  scalar call order, so a kernel and an oracle search started from the
  same seed produce identical populations, scores, selection order and
  full simulation trajectories,
* identical tie-breaking — the greedy fill reproduces the scalar
  first-strictly-smaller scan (including its behaviour on ``inf`` and
  ``nan`` utilisation deltas).

``tests/test_core_evolution_batched.py`` and
``tests/test_core_scoring_incremental.py`` assert all of this per
operator, per generation, over multi-step searches and over whole flat,
node-faulted and hierarchical simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.operators import EvolutionContext
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import sample_progress
from repro.core.scoring_incremental import (
    IncrementalScoringEngine,
    ScoreDecomposition,
    build_decomposition,
    fill_idle_decomposed,
    is_node_monotone,
    reorder_decomposed,
    score_decomposition,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


# --- context vectors -----------------------------------------------------------------------------


def _desired_vector(ctx: EvolutionContext) -> np.ndarray:
    """``desired_gpus`` per roster job (loop-invariant within an event)."""
    return np.array([ctx.desired_gpus(j) for j in ctx.roster], dtype=np.int64)


def _remaining_vector(ctx: EvolutionContext) -> np.ndarray:
    """Expected remaining samples ``Y_j`` per roster job."""
    return np.array(
        [
            ctx.remaining_workload.get(j, float(ctx.jobs[j].dataset_size))
            for j in ctx.roster
        ],
        dtype=float,
    )


# --- genome-matrix primitives --------------------------------------------------------------------


def reindex_genomes(
    genomes: np.ndarray, old_roster: Sequence[str], new_roster: Sequence[str]
) -> np.ndarray:
    """Re-express a genome matrix over ``new_roster``; missing jobs go idle.

    :meth:`Schedule.reindexed` applied to every row at once (completed
    jobs vanish from candidates).
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    old_roster = tuple(old_roster)
    new_index = {job_id: i for i, job_id in enumerate(new_roster)}
    # One extra slot so the IDLE gene (-1) maps to itself via end-indexing.
    mapping = np.full(len(old_roster) + 1, IDLE, dtype=np.int64)
    for i, job_id in enumerate(old_roster):
        mapping[i] = new_index.get(job_id, IDLE)
    return mapping[genomes]


def first_seen_rows(genomes: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row.

    Rows are keyed by their bytes, so the caller passes one integer
    dtype (equal bytes then mean equal genes).  The same indices as
    ``np.sort(np.unique(genomes, axis=0, return_index=True)[1])``,
    without sorting the rows.
    """
    first: Dict[bytes, int] = {}
    for index, row in enumerate(genomes):
        first.setdefault(row.tobytes(), index)
    return np.fromiter(first.values(), dtype=np.int64, count=len(first))


# --- refresh -------------------------------------------------------------------------------------


def _place_new_jobs_row(row: np.ndarray, ctx: EvolutionContext) -> None:
    """Refresh step 3 for one genome row, in place (rare: arrival events).

    Mirrors the scalar operator exactly: every brand-new job gets one
    GPU in roster order, FIFO over the ascending idle list, stealing the
    last GPU of the longest-running victim when none are idle.
    """
    roster = ctx.roster
    counts = np.bincount(row[row != IDLE], minlength=len(roster))
    index = {job_id: i for i, job_id in enumerate(roster)}
    new_jobs = [
        job_id
        for job_id in roster
        if job_id in ctx.never_started and counts[index[job_id]] == 0
    ]
    if not new_jobs:
        return
    idle = [int(g) for g in np.flatnonzero(row == IDLE)]
    placed = [roster[int(i)] for i in np.unique(row[row != IDLE])]
    victims = sorted(
        (j for j in placed if j not in ctx.never_started),
        key=lambda j: ctx.executed_time.get(j, 0.0),
        reverse=True,
    )
    for job_id in new_jobs:
        if not idle:
            for victim in victims:
                victim_gpus = np.flatnonzero(row == index[victim])
                if victim_gpus.size:
                    idle.append(int(victim_gpus[-1]))
                    row[victim_gpus[-1]] = IDLE
                    break
        if not idle:
            break  # nothing left to take; remaining new jobs must wait
        row[idle.pop(0)] = index[job_id]


def _refresh_decomposed(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    decomp: ScoreDecomposition,
    desired: np.ndarray,
    remaining: np.ndarray,
) -> np.ndarray:
    """Refresh (§3.2.2) of on-roster genomes, maintaining ``decomp``.

    Every over-provisioned job keeps its first ``desired`` GPUs: an
    occurrence-rank pass over just the rows whose cached counts exceed
    a job's desired share (skipped outright when none do).  Brand-new
    jobs then get one GPU each (:func:`_place_new_jobs_row`, rebuilding
    only the rows it touched), and the idle GPUs left over go to the
    greedy fill.  Rows must already index ``ctx.roster`` (see
    :func:`reindex_genomes`).
    """
    genomes = np.array(genomes, dtype=np.int64)
    num_jobs = len(ctx.roster)
    over = decomp.counts > desired[None, :]
    if over.any():
        rows = np.flatnonzero(over.any(axis=1))
        sub = genomes[rows]
        onehot = sub[:, :, None] == np.arange(num_jobs)[None, None, :]
        occurrence = onehot.cumsum(axis=1)
        gene = np.where(sub == IDLE, 0, sub)
        rank = np.take_along_axis(occurrence, gene[:, :, None], axis=2)[:, :, 0] - 1
        sub[(sub != IDLE) & (rank >= desired[gene])] = IDLE
        genomes[rows] = sub
        decomp.rebuild_rows(genomes, rows)

    never = np.array([j in ctx.never_started for j in ctx.roster], dtype=bool)
    if never.any():
        touched = np.flatnonzero((never[None, :] & (decomp.counts == 0)).any(axis=1))
        for row in touched:
            _place_new_jobs_row(genomes[row], ctx)
        decomp.rebuild_rows(genomes, touched)

    return fill_idle_decomposed(genomes, ctx, decomp, desired, remaining)


# --- one full generation -------------------------------------------------------------------------


def _charge(phases: Optional[Dict[str, float]], key: str, start: float) -> float:
    """Accrue ``perf_counter() - start`` onto ``phases[key]``; new mark.

    The per-operator attribution behind the ``--profile`` breakdown
    (``evo_fill`` / ``evo_crossover`` / ``evo_mutation`` /
    ``evo_selection`` plus ``rescore_full`` / ``rescore_delta``); a
    ``None`` phases dict keeps the generation timer-free.  Children and
    mutants are repaired by one fill call after both operators ran, so
    ``evo_fill`` holds that fill as well as the refresh's, and
    ``evo_crossover`` / ``evo_mutation`` hold only the operators' draws
    and array ops.
    """
    now = perf_counter()
    if phases is not None:
        phases[key] = phases.get(key, 0.0) + (now - start)
    return now


def _crossover_children(
    parents: np.ndarray, pairs: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform crossover (Fig. 8) of ``pairs`` random parent pairs.

    The loop makes only the draws, in the scalar operator's order (two
    distinct parents, then the inheritance mask, per pair); the
    ``2·pairs`` children are then built in two array ops.
    """
    num_rows, num_gpus = parents.shape
    picks = np.empty((pairs, 2), dtype=np.int64)
    masks = np.empty((pairs, num_gpus), dtype=bool)
    for pair in range(pairs):
        picks[pair] = rng.choice(num_rows, size=2, replace=False)
        masks[pair] = rng.integers(0, 2, size=num_gpus)
    first = parents[picks[:, 0]]
    second = parents[picks[:, 1]]
    children = np.empty((2 * pairs, num_gpus), dtype=np.int64)
    children[0::2] = np.where(masks, first, second)
    children[1::2] = np.where(masks, second, first)
    return children


def _mutation_draws(
    counts: np.ndarray, size: int, rate: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Uniform mutation's (Fig. 9) draws for ``size`` mutants.

    ``counts`` is the population's ``(rows, num_jobs)`` GPU-count matrix.
    Per mutant the loop draws the member it copies, then one coin per
    job placed in that member (ascending job index), exactly as the
    scalar operator does.  Returns ``(members, preempted)``:
    ``preempted[m, j]`` says mutant ``m`` idles job ``j``, and its extra
    last column stays False, so the IDLE gene (-1) indexes "keep".
    """
    placed = counts > 0
    per_row = placed.sum(axis=1).tolist()
    members = np.empty(size, dtype=np.int64)
    coins = []
    for m in range(size):
        member = int(rng.integers(0, counts.shape[0]))
        members[m] = member
        coins.append(rng.random(per_row[member]))
    preempted = np.zeros((size, counts.shape[1] + 1), dtype=bool)
    preempted[:, :-1][placed[members]] = np.concatenate(coins) < rate
    return members, preempted


def _mutants(
    population: np.ndarray, members: np.ndarray, preempted: np.ndarray
) -> np.ndarray:
    """The mutant genomes: each member's row with its preempted jobs idled."""
    rows = population[members]
    return np.where(np.take_along_axis(preempted, rows, axis=1), IDLE, rows)


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of one :func:`run_generation` call."""

    #: Surviving population, ordered best → worst, ``(<=K, num_gpus)``.
    population: np.ndarray
    #: Sampled Eq. 8 scores of the survivors (same order).
    scores: np.ndarray
    #: The winning genome ``S*`` (first survivor).
    best_genome: np.ndarray
    #: Its sampled score.
    best_score: float
    #: Distinct candidates scored this generation (after de-duplication).
    pool_size: int


def run_generation(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    config,
    engine: IncrementalScoringEngine,
    phases: Optional[Dict[str, float]] = None,
) -> GenerationResult:
    """One evolution generation as array ops over the genome matrix.

    Refresh, crossover pairs + repair, mutation, reorder,
    de-duplication and Algorithm-1 selection, consuming ``ctx.rng`` in
    the scalar reference's call order.  ``config`` is an
    :class:`~repro.core.evolution.EvolutionConfig`.

    Counts and crossings flow through ``engine``'s cached
    :class:`~repro.core.scoring_incremental.ScoreDecomposition`: reused
    when ``genomes`` is the population the engine committed last time,
    rebuilt otherwise.  The survivors' rows are committed back for the
    next generation.  ``phases`` optionally accrues per-operator
    wall-clock (see :func:`_charge`).
    """
    table = ctx.throughput_table
    if ctx.roster != table.roster:
        raise ValueError(
            "context and throughput table disagree on the roster: "
            f"{ctx.roster} vs {table.roster}"
        )
    genomes = np.asarray(genomes, dtype=np.int64)
    num_jobs = len(ctx.roster)
    size = config.resolved_population_size(ctx.num_gpus)
    desired = _desired_vector(ctx)
    remaining = _remaining_vector(ctx)

    mark = perf_counter()
    decomp, rebuilt = engine.prepare(genomes, ctx.roster, table)
    mark = _charge(phases, "rescore_full" if rebuilt else "rescore_delta", mark)

    refreshed = _refresh_decomposed(genomes, ctx, decomp, desired, remaining)
    mark = _charge(phases, "evo_fill", mark)
    population_rows = refreshed.shape[0]

    # Uniform crossover of randomly chosen parent pairs (Fig. 8) and
    # uniform mutation (Fig. 9).  The idle-GPU repair consumes no
    # randomness, so children and mutants go through one fill afterwards.
    offspring = []
    offspring_decomps = []
    if config.enable_crossover and population_rows >= 2:
        pairs = config.resolved_crossover_pairs(size)
        children = _crossover_children(refreshed, pairs, ctx.rng)
        # Children mix whole parents, so roughly half their cells moved:
        # a fresh build over the 2·pairs new rows is the delta update.
        offspring.append(children)
        offspring_decomps.append(
            build_decomposition(children, num_jobs, decomp.node_of)
        )
        mark = _charge(phases, "evo_crossover", mark)

    if config.enable_mutation:
        # The cached counts know each member's placed jobs, sorted: the
        # jobs the scalar operator flips a coin for.
        members, preempted = _mutation_draws(
            decomp.counts, size, config.mutation_rate, ctx.rng
        )
        offspring.append(_mutants(refreshed, members, preempted))
        # Preempting a job empties exactly its own cells; every other
        # job's placement (and hence cell) is untouched.
        kept = ~preempted[:, :-1]
        offspring_decomps.append(
            ScoreDecomposition(
                np.where(kept, decomp.counts[members], 0),
                decomp.crosses[members] & kept,
                np.where(kept, decomp.sole_node[members], -1),
                decomp.node_of,
            )
        )
        mark = _charge(phases, "evo_mutation", mark)

    if offspring:
        offspring_decomp = ScoreDecomposition.concatenate(offspring_decomps)
        filled = fill_idle_decomposed(
            np.concatenate(offspring, axis=0), ctx, offspring_decomp, desired, remaining
        )
        mark = _charge(phases, "evo_fill", mark)
        pool = np.concatenate([refreshed, filled], axis=0)
        pool_decomp = ScoreDecomposition.concatenate([decomp, offspring_decomp])
    else:
        pool = refreshed.copy()
        pool_decomp = decomp
    if config.enable_reorder:
        pool = reorder_decomposed(pool, pool_decomp, engine.node_monotone)

    # Selection (Algorithm 1): de-duplicate (first-seen rows; duplicates
    # have identical cells whichever row survives), score the whole pool
    # on shared progress samples, keep the best K by stable order.
    if pool.shape[0] > 1:
        keep = first_seen_rows(pool)
        if keep.size != pool.shape[0]:
            pool = pool[keep]
            pool_decomp = pool_decomp.take(keep)
    progress = sample_progress(ctx.jobs, ctx.distributions, ctx.rng)
    scores = score_decomposition(pool_decomp, ctx.roster, ctx.jobs, progress, table)
    order = np.argsort(scores, kind="stable")[:size]
    survivors = pool[order]
    engine.commit(survivors, pool_decomp.take(order))
    _charge(phases, "evo_selection", mark)
    return GenerationResult(
        population=survivors,
        scores=scores[order],
        best_genome=survivors[0].copy(),
        best_score=float(scores[order[0]]),
        pool_size=pool.shape[0],
    )


def initial_population_genomes(
    ctx: EvolutionContext,
    size: int,
    current: Optional[Schedule] = None,
    seed: SeedLike = None,
) -> np.ndarray:
    """``G_0`` as a genome matrix: random job-per-GPU candidates, cleaned up.

    §3.2.2 initialises the population by "running a random job on each
    GPU": one random draw per candidate, then one refresh + reorder over
    the stacked matrix.  The currently deployed schedule, when given, is
    appended so the search can never regress below the status quo.  The
    decomposition those operators maintain is local and discarded; the
    first generation builds the engine's own.
    """
    check_positive_int(size, "size")
    rng = as_generator(seed if seed is not None else ctx.rng)
    num_jobs = len(ctx.roster)
    rows = []
    for _ in range(size):
        if num_jobs == 0:
            rows.append(np.full(ctx.num_gpus, IDLE, dtype=np.int64))
        else:
            rows.append(rng.integers(0, num_jobs, size=ctx.num_gpus).astype(np.int64))
    genomes = np.stack(rows)
    if current is not None:
        reindexed = current.reindexed(ctx.roster).genome
        genomes = np.concatenate([genomes, reindexed[None, :]], axis=0)
    node_of = np.asarray(ctx.throughput_table.node_of, dtype=np.int64)
    decomp = build_decomposition(genomes, num_jobs, node_of)
    refreshed = _refresh_decomposed(
        genomes, ctx, decomp, _desired_vector(ctx), _remaining_vector(ctx)
    )
    return reorder_decomposed(refreshed, decomp, is_node_monotone(node_of))

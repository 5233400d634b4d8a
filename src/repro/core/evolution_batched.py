"""Batched evolution operators over the stacked genome matrix.

PR 1 vectorised Eq. 8 scoring; this module does the same for the
*operators* of §3.2.2, which dominated the per-event cost afterwards:
one generation of the search — refresh, idle-GPU fill, uniform
crossover + repair, uniform mutation, reorder, elitist selection — runs
as array expressions over the population's ``(K, num_gpus)`` int64
genome matrix (the same representation
:func:`repro.core.scoring.score_population` consumes).  No intermediate
:class:`~repro.core.schedule.Schedule` objects are materialised; the
single winning candidate per scheduler event is rebuilt through
:meth:`Schedule.from_validated_genome`, which skips ``__post_init__``
re-validation on internally-produced genomes.

**Differential contract.**  Every function here is *move-for-move and
bit-for-bit identical* to the scalar reference in
:mod:`repro.core.operators` / :mod:`repro.core.evolution`:

* identical genomes out of every operator for identical genomes in,
* identical RNG consumption — stochastic draws (crossover parent pairs
  and masks, mutation victim picks and per-job preemption coins, the
  shared progress samples of Algorithm 1) are issued in exactly the
  scalar call order, so a batched and a scalar run started from the
  same seed produce identical populations, scores, selection order and
  full simulation trajectories,
* identical tie-breaking — the greedy fill reproduces the scalar
  first-strictly-smaller scan (including its behaviour on ``inf`` and
  ``nan`` utilisation deltas).

``tests/test_core_evolution_batched.py`` asserts all of this per
operator and over multi-event simulations; the
``EvolutionConfig.batched_operators`` flag (default on) switches
:class:`~repro.core.evolution.EvolutionarySearch` between the two
implementations, and the scalar path remains the readable reference.

The batched path requires an :class:`EvolutionContext` with a
``throughput_table`` (the ONES scheduler always provides one); contexts
with only a generic ``throughput_fn`` fall back to the scalar
operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.operators import EvolutionContext
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import (
    population_gpu_counts,
    population_node_crossings,
    sample_progress,
    score_count_matrix,
)
from repro.core.scoring_incremental import (
    IncrementalScoringEngine,
    ScoreDecomposition,
    build_decomposition,
    fill_idle_decomposed,
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


def _require_table(ctx: EvolutionContext):
    table = ctx.throughput_table
    if table is None:
        raise ValueError(
            "the batched operators need an EvolutionContext with a "
            "throughput_table; use the scalar reference operators otherwise"
        )
    return table


# --- genome-matrix primitives --------------------------------------------------------------------


def reindex_genomes(
    genomes: np.ndarray, old_roster: Sequence[str], new_roster: Sequence[str]
) -> np.ndarray:
    """Re-express a genome matrix over ``new_roster``; missing jobs go idle.

    The batched equivalent of :meth:`Schedule.reindexed` applied to
    every row at once (completed jobs vanish from candidates).
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    old_roster = tuple(old_roster)
    new_index = {job_id: i for i, job_id in enumerate(new_roster)}
    # One extra slot so the IDLE gene (-1) maps to itself via end-indexing.
    mapping = np.full(len(old_roster) + 1, IDLE, dtype=np.int64)
    for i, job_id in enumerate(old_roster):
        mapping[i] = new_index.get(job_id, IDLE)
    return mapping[genomes]


def population_node_presence(
    genomes: np.ndarray, num_jobs: int, node_of: np.ndarray
) -> np.ndarray:
    """Per-(candidate, job) server-occupancy flags, ``(K, num_jobs, num_nodes)``.

    ``presence[k, j, n]`` is True when candidate ``k`` places job ``j``
    on at least one GPU of server ``n`` — the state the greedy fill
    tracks to price moves on the correct locality plane of the
    throughput table.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    node_of = np.asarray(node_of, dtype=np.int64)
    num_nodes = int(node_of.max()) + 1 if node_of.size else 1
    presence = np.zeros((num_candidates, num_jobs, num_nodes), dtype=bool)
    if num_jobs == 0 or num_gpus == 0:
        return presence
    placed = genomes != IDLE
    rows = np.broadcast_to(
        np.arange(num_candidates, dtype=np.int64)[:, None], genomes.shape
    )
    nodes = np.broadcast_to(node_of[None, :], genomes.shape)
    presence[rows[placed], genomes[placed], nodes[placed]] = True
    return presence


def reorder_population(genomes: np.ndarray) -> np.ndarray:
    """Batched :func:`repro.core.operators.reorder` (Fig. 10).

    Each row's workers are packed contiguously in order of the job's
    first occurrence, idle genes at the end — implemented as one stable
    argsort per matrix on "first occurrence position of my gene" keys.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    if num_candidates == 0 or num_gpus == 0 or not (genomes != IDLE).any():
        return genomes.copy()
    num_values = int(genomes.max()) + 1
    onehot = genomes[:, :, None] == np.arange(num_values)[None, None, :]
    present = onehot.any(axis=1)
    first_pos = np.where(present, onehot.argmax(axis=1), num_gpus)
    gene = np.where(genomes == IDLE, 0, genomes)
    keys = np.take_along_axis(first_pos, gene, axis=1)
    keys = np.where(genomes == IDLE, num_gpus, keys)
    order = np.argsort(keys, axis=1, kind="stable")
    return np.take_along_axis(genomes, order, axis=1)


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


def unique_rows(genomes: np.ndarray) -> np.ndarray:
    """Distinct genome rows, preserving first-seen order.

    The matrix counterpart of :func:`repro.core.schedule.unique_schedules`
    (selection de-duplicates the candidate pool the same way).
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    if genomes.shape[0] <= 1:
        return genomes.copy()
    return genomes[first_seen_rows(genomes)]


# --- fill / refresh ------------------------------------------------------------------------------


def fill_idle_population(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    desired: Optional[np.ndarray] = None,
    remaining: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched greedy idle-GPU fill (§3.2.2), all candidates in lockstep.

    Per round, every still-unfinished candidate evaluates every
    waiting/growable job's utilisation delta (``Δφ_j·Y_j``) in one
    ``(K_active, num_jobs)`` array expression — throughputs gathered
    from the context's :class:`~repro.jobs.throughput.ThroughputTable`,
    placement locality tracked through per-(candidate, job)
    server-occupancy flags — and applies its best move.  Candidates
    that run out of idle GPUs or eligible jobs drop out; rounds repeat
    until every candidate is done.

    Move-for-move identical to
    :func:`repro.core.operators.fill_idle_gpus` on a table-backed
    context, including the scalar scan's tie-breaking (first job in
    roster order wins ties; ``nan`` deltas — from ``inf − inf`` on
    zero-throughput curves — never displace an incumbent best).

    ``desired`` / ``remaining`` are the per-roster-job vectors of
    :func:`_desired_vector` / :func:`_remaining_vector`; callers running
    several operators per event pass them in to avoid recomputation.
    """
    table = _require_table(ctx)
    genomes = np.array(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    num_jobs = len(ctx.roster)
    if num_candidates == 0 or num_gpus == 0 or num_jobs == 0:
        return genomes
    node_of = np.asarray(table.node_of, dtype=np.int64)
    num_nodes = int(node_of.max()) + 1 if node_of.size else 1
    if desired is None:
        desired = _desired_vector(ctx)
    if remaining is None:
        remaining = _remaining_vector(ctx)

    counts = population_gpu_counts(genomes, num_jobs)
    presence = population_node_presence(genomes, num_jobs, node_of)

    # Ragged per-row idle-GPU lists as a padded matrix: ascending
    # positions in the first n_idle[k] slots, sentinel num_gpus after.
    idle_mask = genomes == IDLE
    n_idle = idle_mask.sum(axis=1)
    slot_order = np.argsort(~idle_mask, axis=1, kind="stable")
    idle_pos = np.where(
        np.arange(num_gpus)[None, :] < n_idle[:, None], slot_order, num_gpus
    )
    node_ext = np.append(node_of, 0)  # sentinel slots masked out below

    rows = np.flatnonzero(n_idle > 0)
    while rows.size:
        # Every array below is sliced to the still-active rows, so late
        # rounds (few unfinished candidates) cost proportionally less.
        counts_a = counts[rows]
        n_idle_a = n_idle[rows]
        eligible = counts_a < desired[None, :]
        has_move = eligible.any(axis=1)
        if not has_move.all():
            rows = rows[has_move]
            if not rows.size:
                break
            counts_a = counts_a[has_move]
            n_idle_a = n_idle_a[has_move]
            eligible = eligible[has_move]
        active = rows.size
        sub_ids = np.arange(active)
        presence_a = presence[rows]
        take = np.minimum(n_idle_a[:, None], desired[None, :] - counts_a)
        take = np.where(eligible, take, 0)

        # Node sets of each row's first-t idle GPUs, for every needed t.
        max_idle = int(n_idle_a.max())
        slot_nodes = node_ext[idle_pos[rows, :max_idle]]
        slot_valid = np.arange(max_idle)[None, :] < n_idle_a[:, None]
        slot_onehot = (
            slot_nodes[:, :, None] == np.arange(num_nodes)[None, None, :]
        ) & slot_valid[:, :, None]
        prefix = np.concatenate(
            [
                np.zeros((active, 1, num_nodes), dtype=bool),
                slot_onehot.cumsum(axis=1) > 0,
            ],
            axis=1,
        )
        grown_nodes = prefix[sub_ids[:, None], take]  # (active, num_jobs, num_nodes)
        after_presence = presence_a | grown_nodes
        crosses_before = presence_a.sum(axis=2) > 1
        crosses_after = after_presence.sum(axis=2) > 1

        # Idle jobs and masked-out entries look up count 0 (prefilled,
        # zero model calls) so lazily-filled table entries match the
        # scalar path's exactly.
        before_counts = np.where(eligible & (counts_a > 0), counts_a, 0)
        after_counts = np.where(eligible, counts_a + take, 0)
        thr_before = table.lookup(before_counts, crosses_before)
        thr_after = table.lookup(after_counts, crosses_after)
        with np.errstate(divide="ignore", invalid="ignore"):
            util_before = np.where(
                before_counts > 0,
                np.where(
                    thr_before > 0,
                    remaining[None, :] * before_counts / thr_before,
                    np.inf,
                ),
                0.0,
            )
            util_after = np.where(
                after_counts > 0,
                np.where(
                    thr_after > 0,
                    remaining[None, :] * after_counts / thr_after,
                    np.inf,
                ),
                0.0,
            )
            delta = util_after - util_before

        # The scalar scan keeps the first strictly-smaller delta in
        # roster order; replicate it exactly, including that a nan first
        # candidate (or an all-inf round) pins the first eligible job.
        ranked = np.where(np.isnan(delta) | ~eligible, np.inf, delta)
        pick = np.argmin(ranked, axis=1)
        row_min = ranked[sub_ids, pick]
        first_eligible = np.argmax(eligible, axis=1)
        keep_first = np.isnan(delta[sub_ids, first_eligible]) | np.isposinf(row_min)
        pick = np.where(keep_first, first_eligible, pick)

        for sub, row in enumerate(rows):
            job = int(pick[sub])
            grabbed = int(take[sub, job])
            slots = idle_pos[row, :grabbed]
            genomes[row, slots] = job
            counts[row, job] += grabbed
            presence[row, job] |= grown_nodes[sub, job]
            left = int(n_idle[row]) - grabbed
            idle_pos[row, :left] = idle_pos[row, grabbed : grabbed + left]
            idle_pos[row, left:] = num_gpus
            n_idle[row] = left
        rows = rows[n_idle[rows] > 0]
    return genomes


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


def refresh_population(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    desired: Optional[np.ndarray] = None,
    remaining: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched :func:`repro.core.operators.refresh` over on-roster genomes.

    Shrinking every over-provisioned job to its ``desired_gpus`` (each
    job keeps its first ``desired`` GPUs, exactly like the scalar
    operator) is one occurrence-rank expression over the whole matrix;
    the rare new-job placement runs per affected row; the final idle
    fill is the batched lockstep fill.

    Rows must already index ``ctx.roster`` (use :func:`reindex_genomes`
    on roster changes — the search does this once per event instead of
    once per candidate).
    """
    _require_table(ctx)
    genomes = np.array(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    num_jobs = len(ctx.roster)
    if num_jobs == 0 or num_candidates == 0 or num_gpus == 0:
        return np.full_like(genomes, IDLE)
    if desired is None:
        desired = _desired_vector(ctx)

    # Shrink: occurrence rank of each gene within its (row, job) group;
    # positions ranked past the job's desired count go idle.
    onehot = genomes[:, :, None] == np.arange(num_jobs)[None, None, :]
    occurrence = onehot.cumsum(axis=1)
    gene = np.where(genomes == IDLE, 0, genomes)
    rank = np.take_along_axis(occurrence, gene[:, :, None], axis=2)[:, :, 0] - 1
    genomes[(genomes != IDLE) & (rank >= desired[gene])] = IDLE

    never = np.array([j in ctx.never_started for j in ctx.roster], dtype=bool)
    if never.any():
        counts = population_gpu_counts(genomes, num_jobs)
        for row in np.flatnonzero((never[None, :] & (counts == 0)).any(axis=1)):
            _place_new_jobs_row(genomes[row], ctx)

    return fill_idle_population(genomes, ctx, desired=desired, remaining=remaining)


# --- one full generation -------------------------------------------------------------------------


def _charge(phases: Optional[Dict[str, float]], key: str, start: float) -> float:
    """Accrue ``perf_counter() - start`` onto ``phases[key]``; new mark.

    The per-operator attribution behind the ``--profile`` breakdown
    (``evo_fill`` / ``evo_crossover`` / ``evo_mutation`` /
    ``evo_selection`` plus ``rescore_full`` / ``rescore_delta``); a
    ``None`` phases dict keeps both generation paths timer-free.
    Children and mutants are repaired by one fill call after both
    operators ran, so ``evo_fill`` holds that fill as well as the
    refresh's, and ``evo_crossover`` / ``evo_mutation`` hold only the
    operators' draws and array ops.
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
    """Outcome of one batched generation (the matrix form of ``_iterate``)."""

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
    engine: Optional[IncrementalScoringEngine] = None,
    phases: Optional[Dict[str, float]] = None,
) -> GenerationResult:
    """One evolution generation as array ops over the genome matrix.

    Mirrors ``EvolutionarySearch._iterate`` — refresh, crossover pairs +
    repair, mutation, reorder, de-duplication, Algorithm-1 selection —
    consuming ``ctx.rng`` in exactly the scalar call order so batched
    and scalar searches stay on identical trajectories.  ``config`` is
    an :class:`~repro.core.evolution.EvolutionConfig`.

    With ``config.incremental_scoring`` on and an ``engine``
    (:class:`~repro.core.scoring_incremental.IncrementalScoringEngine`)
    supplied, the generation runs through the delta-scoring kernel: the
    per-candidate :class:`~repro.core.scoring_incremental.ScoreDecomposition`
    is maintained through every operator instead of re-derived, with
    bit-identical results (the fuzz parity suite pins this).  ``phases``
    optionally accrues per-operator wall-clock (see :func:`_charge`).
    """
    table = _require_table(ctx)
    if ctx.roster != table.roster:
        raise ValueError(
            "context and throughput table disagree on the roster: "
            f"{ctx.roster} vs {table.roster}"
        )
    genomes = np.asarray(genomes, dtype=np.int64)
    num_gpus = genomes.shape[1]
    num_jobs = len(ctx.roster)
    size = config.resolved_population_size(ctx.num_gpus)
    desired = _desired_vector(ctx) if num_jobs else None
    remaining = _remaining_vector(ctx) if num_jobs else None

    if (
        engine is not None
        and getattr(config, "incremental_scoring", False)
        and num_jobs > 0
        and num_gpus > 0
        and genomes.shape[0] > 0
    ):
        return _run_generation_incremental(
            genomes, ctx, config, engine, phases, table, size, desired, remaining
        )

    mark = perf_counter()
    refreshed = refresh_population(genomes, ctx, desired=desired, remaining=remaining)
    mark = _charge(phases, "evo_fill", mark)
    population_rows = refreshed.shape[0]
    parts = [refreshed]

    # Uniform crossover of randomly chosen parent pairs (Fig. 8) and
    # uniform mutation (Fig. 9), drawing in the scalar call order.  The
    # idle-GPU repair consumes no randomness, so children and mutants go
    # through one batched fill afterwards.
    offspring = []
    if config.enable_crossover and population_rows >= 2:
        pairs = config.resolved_crossover_pairs(size)
        offspring.append(_crossover_children(refreshed, pairs, ctx.rng))
        mark = _charge(phases, "evo_crossover", mark)
    if config.enable_mutation:
        counts = population_gpu_counts(refreshed, num_jobs)
        members, preempted = _mutation_draws(
            counts, size, config.mutation_rate, ctx.rng
        )
        offspring.append(_mutants(refreshed, members, preempted))
        mark = _charge(phases, "evo_mutation", mark)
    if offspring:
        parts.append(
            fill_idle_population(
                np.concatenate(offspring, axis=0),
                ctx,
                desired=desired,
                remaining=remaining,
            )
        )
        mark = _charge(phases, "evo_fill", mark)

    pool = np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0].copy()
    if config.enable_reorder:
        pool = reorder_population(pool)

    # Selection (Algorithm 1): de-duplicate, score the whole pool on
    # shared progress samples, keep the best K by stable order.
    pool = unique_rows(pool)
    progress = sample_progress(ctx.jobs, ctx.distributions, ctx.rng)
    counts = population_gpu_counts(pool, len(ctx.roster))
    crossings = population_node_crossings(pool, len(ctx.roster), table.node_of)
    scores = score_count_matrix(
        counts, ctx.roster, ctx.jobs, progress, table, crossings
    )
    order = np.argsort(scores, kind="stable")[:size]
    survivors = pool[order]
    _charge(phases, "evo_selection", mark)
    return GenerationResult(
        population=survivors,
        scores=scores[order],
        best_genome=survivors[0].copy(),
        best_score=float(scores[order[0]]),
        pool_size=pool.shape[0],
    )


def _refresh_decomposed(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    decomp: ScoreDecomposition,
    desired: np.ndarray,
    remaining: np.ndarray,
) -> np.ndarray:
    """:func:`refresh_population` maintaining the decomposition.

    The shrink pass — an ``(K, num_gpus, num_jobs)`` occurrence-rank
    one-hot in the non-incremental path — is skipped outright when no
    cached count exceeds its job's desired share (``rank >= desired``
    can then never fire), and otherwise runs only over the
    over-provisioned rows; new-job placement rebuilds just the rows it
    touched.  Genome output is bit-identical to the non-incremental
    refresh.
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


def _run_generation_incremental(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    config,
    engine: IncrementalScoringEngine,
    phases: Optional[Dict[str, float]],
    table,
    size: int,
    desired: np.ndarray,
    remaining: np.ndarray,
) -> GenerationResult:
    """The delta-scoring twin of :func:`run_generation`'s main body.

    Identical RNG stream, identical genomes, identical scores; the
    difference is purely that counts/crossings flow through the
    engine's cached :class:`ScoreDecomposition` instead of being
    re-derived by global bincounts, presence reductions and one-hots.
    """
    num_jobs = len(ctx.roster)

    mark = perf_counter()
    decomp, rebuilt = engine.prepare(genomes, ctx.roster, table)
    mark = _charge(phases, "rescore_full" if rebuilt else "rescore_delta", mark)

    refreshed = _refresh_decomposed(genomes, ctx, decomp, desired, remaining)
    mark = _charge(phases, "evo_fill", mark)
    population_rows = refreshed.shape[0]

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
        # ``np.unique(row[row != IDLE])`` of the scalar operator.
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

    # Selection (Algorithm 1) off the cached decomposition: dedup keeps
    # first-seen rows (identical cells regardless of which duplicate's
    # cache row survives), scoring reuses counts/crossings untouched.
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
    """``G_0`` as a genome matrix — the batched twin of
    :func:`repro.core.population.initial_population`.

    Per-candidate random job-per-GPU draws (same RNG calls, same order
    as the scalar initialiser), then one batched refresh + reorder over
    the stacked matrix; the currently deployed schedule, when given, is
    appended so the search can never regress below the status quo.
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
    return reorder_population(refresh_population(genomes, ctx))

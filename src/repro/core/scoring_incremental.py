"""Incremental delta-scoring: the generation kernel's cached Eq. 8 inputs.

Scoring a generation needs, per candidate and roster job, the GPU count
and the placement locality — and the greedy fill needs the latter again
for every move it prices.  One generation changes only a small fraction
of each genome, so instead of re-deriving those inputs from the genome
matrix each time, this module caches them as a
:class:`ScoreDecomposition` and keeps them *incrementally maintained*
through every operator; a generation touches only the (candidate, job)
cells whose genome entries actually changed:

* ``counts[k, j]`` — GPUs candidate ``k`` gives roster job ``j``
  (the ``c_j`` of Eq. 8),
* ``crosses[k, j]`` — whether that placement spans more than one
  server (selects the locality plane of the throughput table),
* ``sole_node[k, j]`` — the single occupied server when the placement
  is non-crossing (``-1`` otherwise), which is what lets the greedy
  fill decide in O(1) per cell whether a grown placement starts
  crossing, instead of tracking per-round node-set prefixes.

The Eq. 8 *score* itself is still evaluated fresh every generation —
Algorithm 1 draws new progress samples ρ_j each time, so the weights
change — but straight off the cached decomposition
(:func:`score_decomposition`), through
:func:`~repro.core.scoring.score_count_matrix`.  The parity contract is
**identical counts and crossings in, identical floats out**: the kernel
is bit-for-bit the scalar reference in ``tests/_evolution_oracle.py``.

Cache lifecycle (:class:`IncrementalScoringEngine`)
---------------------------------------------------
The engine rides on :class:`~repro.core.evolution.EvolutionarySearch`
next to the genome matrix and survives across scheduler events.  Its
cache is reused only when *nothing that defines a cell has moved*: the
same population array object (identity — any population reset,
re-index, or width change yields a new array), the same roster tuple,
the same genome width, and the same GPU→server map.  Anything else —
fault masking compacting the cluster, a partition-view swap inside
:class:`~repro.core.partitioned.HierarchicalONESScheduler` — fails the
check and triggers one full vectorised rebuild
(:func:`build_decomposition`), attributed to the ``rescore_full``
profiling phase; steady-state generations take the ``rescore_delta``
path.  Throughput-table churn is tracked through
:attr:`~repro.jobs.throughput.ThroughputTable.version` so the engine
can count how often its table context swapped underneath it (the
table's values feed the score gather, never the decomposition, so a
version change alone never dirties the cache).

Adding a score term — the worked recipe
---------------------------------------
Eq. 8 today is ``Σ_j weight_j · counts_j / X_j(counts_j, crosses_j)``.
To add a new per-job term (say a migration penalty, or a third
heterogeneity plane), keep the decomposition discipline:

1. **Split the term** into its *genome-derived* part (a function of one
   candidate's placement of one job — like ``counts``/``crosses``) and
   its *per-generation* part (progress samples, predictor weights).
   Only the genome-derived part belongs in :class:`ScoreDecomposition`.
2. **Add the cached array** to :class:`ScoreDecomposition` (same
   ``(K, num_jobs)`` shape) and teach the three producers about it:
   :func:`build_decomposition` (the full rebuild — write this first,
   every other producer is checked against it), the per-move update in
   :func:`fill_idle_decomposed`, and the analytic update in
   :func:`reorder_decomposed` (fall back to ``rebuild_rows`` if no
   closed form exists — correctness never depends on the fast path).
   Mutation/shrink updates live in
   :mod:`repro.core.evolution_batched` next to the operators.
3. **Consume it** in :func:`score_decomposition` by extending
   :func:`~repro.core.scoring.score_count_matrix` — *never* refactor
   the existing expression (floating-point addition is not
   associative; the parity suites pin the exact evaluation order).
4. **Pin parity**: add the term to the scalar scoring of
   ``tests/_evolution_oracle.py`` first, then extend
   ``tests/test_core_scoring_incremental.py``, which asserts
   ``decomposition == build_decomposition`` after every operator and
   kernel == oracle trajectories bit-for-bit.  Start with
   ``rebuild_rows`` after every operator and replace it with delta
   updates one operator at a time; the suite must pass at each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.operators import EvolutionContext
from repro.core.schedule import IDLE
from repro.core.scoring import population_gpu_counts, score_count_matrix
from repro.jobs.throughput import ThroughputTable


# --- the cached decomposition --------------------------------------------------------------------


@dataclass
class ScoreDecomposition:
    """Per-(candidate, job) genome-derived scoring inputs, kept in sync
    with a ``(K, num_gpus)`` genome matrix as operators mutate it.

    All three arrays are ``(K, num_jobs)``; ``node_of`` is the GPU→server
    map they were derived against.  The invariant — checked exhaustively
    by the parity suite via :meth:`matches` — is that the arrays always
    equal what :func:`build_decomposition` would produce from the
    current genomes.
    """

    #: GPU count per (candidate, job) — the ``c_j`` of Eq. 8.
    counts: np.ndarray
    #: True when the placement spans more than one server.
    crosses: np.ndarray
    #: The single occupied server of a non-crossing placement, else -1.
    sole_node: np.ndarray
    #: GPU id → server id map of the cluster the rows describe.
    node_of: np.ndarray

    @property
    def num_candidates(self) -> int:
        return int(self.counts.shape[0])

    @property
    def num_jobs(self) -> int:
        return int(self.counts.shape[1])

    # -- row plumbing ---------------------------------------------------------------------------

    def take(self, indices: np.ndarray) -> "ScoreDecomposition":
        """Rows ``indices`` as a new decomposition (selection / dedup)."""
        return ScoreDecomposition(
            counts=self.counts[indices],
            crosses=self.crosses[indices],
            sole_node=self.sole_node[indices],
            node_of=self.node_of,
        )

    @staticmethod
    def concatenate(parts: Sequence["ScoreDecomposition"]) -> "ScoreDecomposition":
        """Stack several decompositions row-wise (the candidate pool)."""
        if len(parts) == 1:
            return parts[0]
        return ScoreDecomposition(
            counts=np.concatenate([p.counts for p in parts], axis=0),
            crosses=np.concatenate([p.crosses for p in parts], axis=0),
            sole_node=np.concatenate([p.sole_node for p in parts], axis=0),
            node_of=parts[0].node_of,
        )

    # -- delta maintenance ----------------------------------------------------------------------

    def rebuild_rows(self, genomes: np.ndarray, rows: np.ndarray) -> None:
        """Recompute the cells of ``rows`` from their current genomes.

        The correctness anchor every incremental update can fall back
        to: one vectorised :func:`build_decomposition` over just the
        affected rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        sub = build_decomposition(genomes[rows], self.num_jobs, self.node_of)
        self.counts[rows] = sub.counts
        self.crosses[rows] = sub.crosses
        self.sole_node[rows] = sub.sole_node

    # -- verification ---------------------------------------------------------------------------

    def matches(self, genomes: np.ndarray) -> bool:
        """True when the cache equals a from-scratch rebuild (test hook)."""
        fresh = build_decomposition(np.asarray(genomes), self.num_jobs, self.node_of)
        return (
            np.array_equal(self.counts, fresh.counts)
            and np.array_equal(self.crosses, fresh.crosses)
            and np.array_equal(self.sole_node, fresh.sole_node)
        )


def build_decomposition(
    genomes: np.ndarray, num_jobs: int, node_of: np.ndarray
) -> ScoreDecomposition:
    """Full vectorised (re)build of a :class:`ScoreDecomposition`.

    One flattened ``bincount`` over (candidate, job, node) triples
    yields every placement's occupied servers: their number decides
    ``crosses`` and, when there is one, it is ``sole_node``.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    node_of = np.asarray(node_of, dtype=np.int64)
    counts = population_gpu_counts(genomes, num_jobs)
    crosses = np.zeros((num_candidates, num_jobs), dtype=bool)
    sole = np.full((num_candidates, num_jobs), -1, dtype=np.int64)
    if num_jobs == 0 or num_gpus == 0 or num_candidates == 0:
        return ScoreDecomposition(counts, crosses, sole, node_of)
    num_nodes = int(node_of.max()) + 1 if node_of.size else 1
    placed = genomes != IDLE
    rows = np.broadcast_to(
        np.arange(num_candidates, dtype=np.int64)[:, None], genomes.shape
    )
    nodes = np.broadcast_to(node_of[None, :], genomes.shape)
    flat = (rows[placed] * num_jobs + genomes[placed]) * num_nodes + nodes[placed]
    present = np.bincount(flat, minlength=num_candidates * num_jobs * num_nodes) > 0
    present = present.reshape(num_candidates, num_jobs, num_nodes)
    distinct = present.sum(axis=2)
    crosses = distinct > 1
    sole = np.where(distinct == 1, present.argmax(axis=2), -1)
    return ScoreDecomposition(counts, crosses, sole, node_of)


def is_node_monotone(node_of: np.ndarray) -> bool:
    """Whether server ids never decrease along the GPU ids.

    True for every star topology (``arange // gpus_per_node``) and for
    compacted views of one; :func:`reorder_decomposed` relies on it to
    update the crossing flags without a rebuild.
    """
    return bool(np.all(np.diff(node_of) >= 0))


# --- scoring off the cache -----------------------------------------------------------------------


def score_decomposition(
    decomp: ScoreDecomposition,
    roster: Sequence[str],
    jobs: Mapping[str, object],
    progress: Mapping[str, float],
    table: ThroughputTable,
) -> np.ndarray:
    """Eq. 8 for a whole pool straight off its cached decomposition.

    A thin alias of :func:`~repro.core.scoring.score_count_matrix` fed
    the cached counts/crossings — deliberately *not* a reimplementation,
    so there is one floating-point evaluation order for every score.
    """
    return score_count_matrix(
        decomp.counts, roster, jobs, progress, table, decomp.crosses
    )


# --- incremental operators -----------------------------------------------------------------------


def fill_idle_decomposed(
    genomes: np.ndarray,
    ctx: EvolutionContext,
    decomp: ScoreDecomposition,
    desired: np.ndarray,
    remaining: np.ndarray,
) -> np.ndarray:
    """Greedy idle-GPU fill maintaining the decomposition move-by-move.

    Each round, every still-unfinished row evaluates every
    waiting/growable job's utilisation delta (``Δφ_j·Y_j`` of §3.2.2,
    throughputs gathered from the context's
    :class:`~repro.jobs.throughput.ThroughputTable`) in one
    ``(active, num_jobs)`` array expression and applies its best move,
    with the scalar scan's tie-breaking: the first job in roster order
    wins ties, and ``nan`` deltas — from ``inf − inf`` on
    zero-throughput curves — never displace an incumbent.  Locality
    needs only an ``(active, max_idle)`` *span* prefix: because every
    round grabs a prefix of the row's ascending idle list, a grown
    placement crosses servers iff it already crossed, or the grabbed
    slots span servers themselves, or the job already ran on a single
    server different from the first grabbed slot's (``sole_node``).
    Each round applies the moves of all its rows at once, with array
    ops.  ``decomp`` is updated in place and stays bit-synchronised with
    the returned genomes.
    """
    table = ctx.throughput_table
    genomes = np.array(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    num_jobs = len(ctx.roster)
    if num_candidates == 0 or num_gpus == 0 or num_jobs == 0:
        return genomes

    counts = decomp.counts
    crosses = decomp.crosses
    sole = decomp.sole_node
    node_of = decomp.node_of

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
        crosses_a = crosses[rows]
        sole_a = sole[rows]
        take = np.minimum(n_idle_a[:, None], desired[None, :] - counts_a)
        take = np.where(eligible, take, 0)

        # Whether each row's first-t idle slots span servers, for every
        # needed t: one boolean or-prefix over the slot nodes versus the
        # first slot's node (q0).
        max_idle = int(n_idle_a.max())
        slot_ids = np.arange(max_idle)
        slots = idle_pos[rows, :max_idle]
        slot_nodes = node_ext[slots]
        slot_valid = slot_ids[None, :] < n_idle_a[:, None]
        q0 = slot_nodes[:, 0]
        spans = np.concatenate(
            [
                np.zeros((active, 1), dtype=bool),
                np.logical_or.accumulate(
                    (slot_nodes != q0[:, None]) & slot_valid, axis=1
                ),
            ],
            axis=1,
        )
        spans_t = spans[sub_ids[:, None], take]  # (active, num_jobs)
        crosses_after = (
            crosses_a
            | spans_t
            | ((take >= 1) & (counts_a > 0) & ~crosses_a & (sole_a != q0[:, None]))
        )

        # Idle jobs and masked-out entries look up count 0 (prefilled,
        # zero model calls), so no table entry is filled for a move
        # that is never priced.
        before_counts = np.where(eligible & (counts_a > 0), counts_a, 0)
        after_counts = np.where(eligible, counts_a + take, 0)
        thr_before = table.lookup(before_counts, crosses_a)
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
        # roster order; a nan first candidate (or an all-inf round)
        # pins the first eligible job.
        ranked = np.where(np.isnan(delta) | ~eligible, np.inf, delta)
        pick = np.argmin(ranked, axis=1)
        row_min = ranked[sub_ids, pick]
        first_eligible = np.argmax(eligible, axis=1)
        keep_first = np.isnan(delta[sub_ids, first_eligible]) | np.isposinf(row_min)
        pick = np.where(keep_first, first_eligible, pick)

        # Apply every row's move at once: row ``rows[s]`` hands the
        # first ``grabbed[s]`` GPUs of its idle list to job ``pick[s]``.
        # ``rows`` holds each row once, so the fancy-indexed updates
        # below never collide.
        grabbed = take[sub_ids, pick]
        grab = slot_ids[None, :] < grabbed[:, None]
        genomes[np.repeat(rows, grabbed), slots[grab]] = np.repeat(pick, grabbed)
        cells = (rows, pick)
        grown_crosses = crosses_after[sub_ids, pick]
        sole[cells] = np.where(
            grown_crosses, -1, np.where(counts[cells] == 0, q0, sole[cells])
        )
        crosses[cells] |= grown_crosses
        counts[cells] += grabbed
        # Drop the grabbed slots: shift each idle list left by its grab
        # (past-the-end reads land on the sentinel column).
        sentinel = np.full((active, 1), num_gpus, dtype=slots.dtype)
        shifted = np.minimum(slot_ids[None, :] + grabbed[:, None], max_idle)
        idle_pos[rows, :max_idle] = np.take_along_axis(
            np.concatenate([slots, sentinel], axis=1), shifted, axis=1
        )
        n_idle[rows] -= grabbed
        rows = rows[n_idle[rows] > 0]
    return genomes


def reorder_decomposed(
    genomes: np.ndarray,
    decomp: ScoreDecomposition,
    node_monotone: bool,
) -> np.ndarray:
    """Reorder (Fig. 10) of every row, with an analytic decomposition update.

    Each row's workers are packed contiguously in order of the job's
    first occurrence, idle genes at the end: one stable argsort per
    matrix on "first occurrence of my gene" keys, found by a
    scatter-min.  Reordering never changes ``counts``, but it *packs*
    each job contiguously, so on a monotone GPU→server map the crossing
    flag reduces to "first and last GPU of the packed run live on
    different servers"; when the map is not monotone (never true for
    the star topology's ``arange // gpus_per_node``) the affected rows
    are simply rebuilt.
    """
    genomes = np.asarray(genomes, dtype=np.int64)
    num_candidates, num_gpus = genomes.shape
    if num_candidates == 0 or num_gpus == 0 or not (genomes != IDLE).any():
        return genomes.copy()
    num_jobs = decomp.num_jobs
    node_of = decomp.node_of

    # First occurrence position of every job in every row (num_gpus for
    # absent jobs), via unbuffered scatter-min.
    first_pos = np.full((num_candidates, num_jobs), num_gpus, dtype=np.int64)
    placed = genomes != IDLE
    row_ids = np.broadcast_to(
        np.arange(num_candidates, dtype=np.int64)[:, None], genomes.shape
    )
    col_ids = np.broadcast_to(
        np.arange(num_gpus, dtype=np.int64)[None, :], genomes.shape
    )
    np.minimum.at(first_pos, (row_ids[placed], genomes[placed]), col_ids[placed])

    gene = np.where(genomes == IDLE, 0, genomes)
    keys = np.take_along_axis(first_pos, gene, axis=1)
    keys = np.where(genomes == IDLE, num_gpus, keys)
    order = np.argsort(keys, axis=1, kind="stable")
    out = np.take_along_axis(genomes, order, axis=1)

    if not node_monotone:
        decomp.rebuild_rows(out, np.arange(num_candidates))
        return out

    # Post-reorder, jobs occupy contiguous runs in first-occurrence
    # order: run starts are the exclusive cumsum of the sorted counts.
    job_keys = np.where(decomp.counts > 0, first_pos, num_gpus)
    job_order = np.argsort(job_keys, axis=1, kind="stable")
    counts_sorted = np.take_along_axis(decomp.counts, job_order, axis=1)
    ends = counts_sorted.cumsum(axis=1)
    starts = ends - counts_sorted
    present_sorted = counts_sorted > 0
    start_node = node_of[np.clip(starts, 0, num_gpus - 1)]
    end_node = node_of[np.clip(ends - 1, 0, num_gpus - 1)]
    crosses_sorted = present_sorted & (start_node != end_node)
    sole_sorted = np.where(present_sorted & ~crosses_sorted, start_node, -1)
    np.put_along_axis(decomp.crosses, job_order, crosses_sorted, axis=1)
    np.put_along_axis(decomp.sole_node, job_order, sole_sorted, axis=1)
    return out


# --- the engine ----------------------------------------------------------------------------------


class IncrementalScoringEngine:
    """Owns a population's :class:`ScoreDecomposition` across generations.

    Lifecycle: :meth:`prepare` at the top of a generation either reuses
    the committed cache (when the population array, roster, genome
    width, and GPU→server map are all unchanged — the ``rescore_delta``
    steady state) or performs one full rebuild (``rescore_full``: the
    automatic fallback covering fault masking, partition-view swaps,
    roster re-indexing and every other invalidation, all of which
    replace the population array).  :meth:`commit` at the bottom hands
    the survivors' rows back for the next generation.
    """

    def __init__(self) -> None:
        self._population: Optional[np.ndarray] = None
        self._decomp: Optional[ScoreDecomposition] = None
        self._roster: Optional[Tuple[str, ...]] = None
        self._node_of: Optional[np.ndarray] = None
        self.node_monotone: bool = True
        self._table_version: Optional[int] = None
        #: Generations served from the committed cache.
        self.delta_generations: int = 0
        #: Generations that needed a from-scratch decomposition build.
        self.full_rebuilds: int = 0
        #: Times the throughput table changed identity between
        #: generations (per-event rebuilds, fault masking, view swaps);
        #: table values feed only the score gather, so this never
        #: dirties the decomposition — it is attribution, not policy.
        self.table_swaps: int = 0

    def prepare(
        self,
        genomes: np.ndarray,
        roster: Tuple[str, ...],
        table: ThroughputTable,
    ) -> Tuple[ScoreDecomposition, bool]:
        """Decomposition for ``genomes``; returns ``(decomp, rebuilt)``."""
        node_of = np.asarray(table.node_of, dtype=np.int64)
        version = table.version
        if self._table_version is not None and version != self._table_version:
            self.table_swaps += 1
        self._table_version = version
        reusable = (
            self._decomp is not None
            and self._population is genomes
            and self._roster == roster
            and self._node_of is not None
            and self._node_of.shape == node_of.shape
            and np.array_equal(self._node_of, node_of)
        )
        if reusable:
            self.delta_generations += 1
            decomp = self._decomp
            assert decomp is not None
            rebuilt = False
        else:
            decomp = build_decomposition(genomes, len(roster), node_of)
            self.full_rebuilds += 1
            self._roster = roster
            self._node_of = node_of.copy()
            self.node_monotone = is_node_monotone(node_of)
            rebuilt = True
        # Ownership passes to the running generation: the operators
        # mutate the decomposition in place, so until :meth:`commit`
        # re-attaches the survivors the cache must not be reusable (a
        # generation aborted mid-flight would otherwise leave a stale
        # cache paired with the old population array).
        self._population = None
        self._decomp = None
        return decomp, rebuilt

    def commit(self, survivors: np.ndarray, decomp: ScoreDecomposition) -> None:
        """Adopt the surviving population's rows for the next generation."""
        self._population = survivors
        self._decomp = decomp

    def invalidate(self) -> None:
        """Drop the cache (the next :meth:`prepare` does a full rebuild)."""
        self._population = None
        self._decomp = None

    def stats(self) -> Mapping[str, int]:
        """Attribution counters for ``describe_state`` / benchmarks."""
        return {
            "delta_generations": self.delta_generations,
            "full_rebuilds": self.full_rebuilds,
            "table_swaps": self.table_swaps,
        }

"""Scalar reference of the evolution engine: the test oracle.

Production runs each generation of the search (Fig. 5) as array ops
over the population's genome matrix (:mod:`repro.core.evolution_batched`)
and keeps Eq. 8's inputs in a score decomposition
(:mod:`repro.core.scoring_incremental`).  This module is the readable
reference that kernel must match bit for bit:

* the operators of §3.2.2 — refresh, greedy idle-GPU fill, uniform
  crossover, uniform mutation, reorder — applied to one
  :class:`~repro.core.schedule.Schedule` at a time,
* Eq. 8 scored one candidate at a time, and Algorithm 1's selection
  over a list of candidates,
* :class:`OracleSearch`, the search loop over a list of schedules,
  which a test swaps in for a scheduler's
  :class:`~repro.core.evolution.EvolutionarySearch`
  (:func:`use_oracle_search`).

Every stochastic choice draws from ``ctx.rng`` in the order the kernel
reproduces, so the parity suites drive both from identical state and
compare genomes, scores, RNG state and whole simulations.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.evolution import EvolutionConfig
from repro.core.ones_scheduler import ONESScheduler
from repro.core.operators import EvolutionContext
from repro.core.schedule import IDLE, Schedule
from repro.core.scoring import sample_progress
from repro.core.scoring_incremental import IncrementalScoringEngine
from repro.jobs.throughput import ThroughputTable
from repro.prediction.beta import SAMPLE_EPS
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int


# --- throughput of concrete placements -----------------------------------------------------------


def crosses_nodes(table: ThroughputTable, gpus) -> bool:
    """Whether a concrete placement spans more than one server."""
    nodes = table.node_of[np.asarray(gpus, dtype=np.int64)]
    return bool(nodes.size > 1 and (nodes != nodes[0]).any())


def table_throughput_fn(table: ThroughputTable):
    """A ``(job, schedule) -> samples/s`` view of a throughput table.

    Looks up the plane matching the schedule's actual placement
    locality; jobs outside the table's roster or with no GPUs report
    zero throughput.
    """

    def throughput(job, schedule: Schedule) -> float:
        count = schedule.gpu_count(job.job_id)
        if count == 0 or job.job_id not in table.roster:
            return 0.0
        crosses = crosses_nodes(table, schedule.gpus_of(job.job_id))
        return table.throughput(job.job_id, count, crosses)

    return throughput


def utilization_at(ctx: EvolutionContext, job_id: str, count: int, crosses: bool) -> float:
    """A job's Eq. 8 term at mean progress, on ``count`` GPUs."""
    if count <= 0:
        return 0.0
    throughput = ctx.throughput_table.throughput(job_id, count, crosses)
    if throughput <= 0:
        return float("inf")
    remaining = ctx.remaining_workload.get(job_id, float(ctx.jobs[job_id].dataset_size))
    return remaining * count / throughput


# --- the operators of §3.2.2 ---------------------------------------------------------------------


def refresh(schedule: Schedule, ctx: EvolutionContext) -> Schedule:
    """Bring a candidate in line with the real-time job status."""
    # (1) Completed jobs disappear because the context roster excludes them.
    candidate = schedule if schedule.roster == ctx.roster else schedule.reindexed(ctx.roster)
    genome = np.array(candidate.genome)
    # (2) Each job keeps its first ``desired_gpus`` GPUs.
    for job_id in candidate.placed_jobs():
        genome[candidate.gpus_of(job_id)[ctx.desired_gpus(job_id):]] = IDLE
    candidate = candidate.with_genome(genome)

    # (3) Every brand-new job gets one GPU, taking GPUs from the
    # longest-running jobs when none are idle (starvation avoidance).
    new_jobs = [
        job_id
        for job_id in ctx.roster
        if job_id in ctx.never_started and candidate.gpu_count(job_id) == 0
    ]
    if new_jobs:
        genome = np.array(candidate.genome)
        idle = candidate.idle_gpus()
        victims = sorted(
            (j for j in candidate.placed_jobs() if j not in ctx.never_started),
            key=lambda j: ctx.executed_time.get(j, 0.0),
            reverse=True,
        )
        for job_id in new_jobs:
            if not idle:
                for victim in victims:
                    victim_gpus = np.flatnonzero(genome == ctx.roster.index(victim))
                    if victim_gpus.size:
                        idle.append(int(victim_gpus[-1]))
                        genome[victim_gpus[-1]] = IDLE
                        break
            if not idle:
                break  # nothing left to take; remaining new jobs must wait
            genome[idle.pop(0)] = ctx.roster.index(job_id)
        candidate = candidate.with_genome(genome)

    # (4) Fill remaining idle GPUs with the most beneficial resume/grow moves.
    return fill_idle_gpus(candidate, ctx)


def fill_idle_gpus(schedule: Schedule, ctx: EvolutionContext) -> Schedule:
    """Fill idle GPUs by resuming waiting jobs or growing running ones.

    Each round considers every job below its desired GPU count, taking
    the first idle GPUs it can use, prices the move's utilisation change
    under the expected progress (the ``Δφ_j·Y_j`` weights), and applies
    the first strictly-smallest one.  Rounds repeat until no GPU is idle
    or no job can use one.
    """
    idle = schedule.idle_gpus()
    if not idle:
        return schedule
    node_of = ctx.throughput_table.node_of
    genome = np.array(schedule.genome)
    counts = schedule.gpu_counts()
    desired = {job_id: ctx.desired_gpus(job_id) for job_id in ctx.roster}
    nodes_of_job: Dict[str, set] = {job_id: set() for job_id in ctx.roster}
    for gpu, gene in enumerate(genome.tolist()):
        if gene != IDLE:
            nodes_of_job[ctx.roster[gene]].add(int(node_of[gpu]))
    while idle:
        best = None
        for job_id in ctx.roster:
            count = counts.get(job_id, 0)
            take = min(len(idle), desired[job_id] - count)
            if take <= 0:
                continue
            before = nodes_of_job[job_id]
            after = before | {int(node_of[g]) for g in idle[:take]}
            delta = utilization_at(ctx, job_id, count + take, len(after) > 1) - (
                utilization_at(ctx, job_id, count, len(before) > 1)
            )
            if best is None or delta < best[0]:
                best = (delta, job_id, take, after)
        if best is None:
            break
        _, job_id, take, after = best
        genome[idle[:take]] = ctx.roster.index(job_id)
        idle = idle[take:]
        counts[job_id] = counts.get(job_id, 0) + take
        nodes_of_job[job_id] = after
    return schedule.with_genome(genome)


def uniform_crossover(
    parent_a: Schedule, parent_b: Schedule, rng: SeedLike = None
) -> Tuple[Schedule, Schedule]:
    """Uniform crossover (Fig. 8): per GPU, one child takes each parent's gene."""
    if parent_a.roster != parent_b.roster:
        raise ValueError("crossover parents must share the same roster")
    if parent_a.num_gpus != parent_b.num_gpus:
        raise ValueError("crossover parents must cover the same number of GPUs")
    mask = as_generator(rng).integers(0, 2, size=parent_a.num_gpus).astype(bool)
    return (
        parent_a.with_genome(np.where(mask, parent_a.genome, parent_b.genome)),
        parent_a.with_genome(np.where(mask, parent_b.genome, parent_a.genome)),
    )


def uniform_mutation(
    schedule: Schedule, ctx: EvolutionContext, mutation_rate: float = 0.2
) -> Schedule:
    """Uniform mutation (Fig. 9): preempt each placed job with probability θ, refill."""
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
    genome = np.array(schedule.genome)
    for gene in np.unique(genome[genome != IDLE]):
        if ctx.rng.random() < mutation_rate:
            genome[genome == gene] = IDLE
    return fill_idle_gpus(schedule.with_genome(genome), ctx)


def reorder(schedule: Schedule) -> Schedule:
    """Pack each job's workers contiguously in order of first occurrence (Fig. 10)."""
    genes = schedule.genome[schedule.genome != IDLE].tolist()
    first: Dict[int, int] = {}
    for position, gene in enumerate(genes):
        first.setdefault(gene, position)
    packed = sorted(genes, key=first.__getitem__)
    packed += [IDLE] * (schedule.num_gpus - len(packed))
    return schedule.with_genome(packed)


# --- Eq. 8 and Algorithm 1 -----------------------------------------------------------------------


def candidate_score(
    schedule: Schedule, jobs: Mapping, progress: Mapping[str, float], table: ThroughputTable
) -> float:
    """Remaining-utilisation score of one candidate (Eq. 8, lower is better)."""
    counts = schedule.gpu_counts()
    terms = np.zeros(len(schedule.roster), dtype=float)
    for i, job_id in enumerate(schedule.roster):
        processed = jobs[job_id].samples_processed
        if job_id not in counts or processed <= 0:
            # Idle jobs cost nothing; so do brand-new ones (no measured
            # history: the preferential treatment refresh relies on).
            continue
        crosses = crosses_nodes(table, schedule.gpus_of(job_id))
        throughput = table.throughput(job_id, counts[job_id], crosses)
        if throughput <= 0:
            terms[i] = float("inf")
            continue
        rho = float(np.clip(progress.get(job_id, 0.5), SAMPLE_EPS, 1.0 - SAMPLE_EPS))
        remaining = processed * (1.0 / rho - 1.0)
        terms[i] = remaining * counts[job_id] / throughput
    return float(np.sum(terms))


def score_candidates(candidates, jobs, progress, table) -> np.ndarray:
    """Scores of several candidates under shared progress samples."""
    return np.asarray(
        [candidate_score(c, jobs, progress, table) for c in candidates], dtype=float
    )


def unique_schedules(candidates) -> List[Schedule]:
    """Distinct genomes, preserving first-seen order."""
    seen: Dict[bytes, Schedule] = {}
    for candidate in candidates:
        seen.setdefault(candidate.genome.tobytes(), candidate)
    return list(seen.values())


def probability_sample(candidates, jobs, distributions, table, rng=None):
    """Algorithm 1: the candidate with the smallest sampled score."""
    if not candidates:
        raise ValueError("probability_sample requires at least one candidate")
    progress = sample_progress(jobs, distributions, as_generator(rng))
    scores = score_candidates(candidates, jobs, progress, table)
    best = int(np.argmin(scores))
    return candidates[best], float(scores[best])


def select_top_k(candidates, jobs, distributions, table, k, rng=None):
    """Selection: the K best distinct candidates, ``[(schedule, score), ...]``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not candidates:
        raise ValueError("select_top_k requires at least one candidate")
    pool = unique_schedules(candidates)
    progress = sample_progress(jobs, distributions, as_generator(rng))
    scores = score_candidates(pool, jobs, progress, table)
    order = np.argsort(scores, kind="stable")[:k]
    return [(pool[int(i)], float(scores[int(i)])) for i in order]


# --- the search ----------------------------------------------------------------------------------


def initial_population(
    ctx: EvolutionContext,
    size: int,
    current: Optional[Schedule] = None,
    seed: SeedLike = None,
) -> List[Schedule]:
    """``G_0``: random job-per-GPU candidates, refreshed and packed, plus ``current``."""
    check_positive_int(size, "size")
    rng = as_generator(seed if seed is not None else ctx.rng)
    num_jobs = len(ctx.roster)
    population = []
    for _ in range(size):
        if num_jobs == 0:
            genome = np.full(ctx.num_gpus, IDLE, dtype=np.int64)
        else:
            genome = rng.integers(0, num_jobs, size=ctx.num_gpus).astype(np.int64)
        population.append(reorder(refresh(Schedule(roster=ctx.roster, genome=genome), ctx)))
    if current is not None:
        population.append(reorder(refresh(current.reindexed(ctx.roster), ctx)))
    return population


def generation(
    population: List[Schedule], ctx: EvolutionContext, config: EvolutionConfig
) -> Tuple[List[Tuple[Schedule, float]], int]:
    """One generation: the survivors (best first, with their scores) and
    the number of distinct candidates scored."""
    size = config.resolved_population_size(ctx.num_gpus)
    refreshed = [refresh(member, ctx) for member in population]
    candidates = list(refreshed)
    if config.enable_crossover and len(refreshed) >= 2:
        for _ in range(config.resolved_crossover_pairs(size)):
            i, j = ctx.rng.choice(len(refreshed), size=2, replace=False)
            children = uniform_crossover(refreshed[int(i)], refreshed[int(j)], rng=ctx.rng)
            candidates += [fill_idle_gpus(child, ctx) for child in children]
    if config.enable_mutation:
        for _ in range(size):
            member = refreshed[int(ctx.rng.integers(0, len(refreshed)))]
            candidates.append(uniform_mutation(member, ctx, config.mutation_rate))
    if config.enable_reorder:
        candidates = [reorder(candidate) for candidate in candidates]
    survivors = select_top_k(
        candidates, ctx.jobs, ctx.distributions, ctx.throughput_table, k=size, rng=ctx.rng
    )
    return survivors, len(unique_schedules(candidates))


class OracleSearch:
    """The scalar search loop, with the interface the ONES scheduler uses.

    The population is a list of :class:`Schedule` objects; it is
    initialised, re-indexed on roster changes and dropped on genome-width
    changes exactly as :class:`~repro.core.evolution.EvolutionarySearch`
    handles its genome matrix.
    """

    def __init__(self, config: Optional[EvolutionConfig] = None, seed: SeedLike = None) -> None:
        self.config = config or EvolutionConfig()
        self._rng = as_generator(seed)
        self.population: List[Schedule] = []
        self.best_candidate: Optional[Schedule] = None
        self.best_score = float("inf")
        self.iterations_run = 0
        self.last_iteration_scores: List[float] = []
        # Never prepared: the scheduler's counters read its zero stats.
        self.scoring_engine = IncrementalScoringEngine()
        self.phase_seconds: Dict[str, float] = {}

    @property
    def population_size(self) -> int:
        return len(self.population)

    @property
    def genomes(self) -> Optional[np.ndarray]:
        """The population stacked like the kernel's genome matrix."""
        if not self.population:
            return None
        return np.stack([member.genome for member in self.population])

    def step(self, ctx: EvolutionContext, current: Optional[Schedule] = None):
        if self.population and self.population[0].num_gpus != ctx.num_gpus:
            self.population = []
        if not self.population:
            size = self.config.resolved_population_size(ctx.num_gpus)
            self.population = initial_population(ctx, size, current=current, seed=self._rng)
        elif self.population[0].roster != ctx.roster:
            self.population = [member.reindexed(ctx.roster) for member in self.population]
            if current is not None:
                self.population.append(current.reindexed(ctx.roster))
        self.last_iteration_scores = []
        for _ in range(self.config.iterations_per_invocation):
            survivors, _ = generation(self.population, ctx, self.config)
            self.population = [schedule for schedule, _ in survivors]
            self.iterations_run += 1
            self.last_iteration_scores.append(survivors[0][1])
        self.best_candidate, self.best_score = survivors[0]
        return survivors[0]


def use_oracle_search(scheduler):
    """Run every ONES search of ``scheduler`` through :class:`OracleSearch`.

    Each oracle search shares its ONES scheduler's RNG, as the kernel's
    search does.  A hierarchical scheduler builds its per-shard ONES
    schedulers on its first callback, so its setup step is wrapped to
    swap their searches as soon as they exist.  Returns ``scheduler``.
    """
    if isinstance(scheduler, ONESScheduler):
        scheduler.search = OracleSearch(scheduler.config.evolution, seed=scheduler._rng)
        return scheduler
    setup = scheduler._ensure_setup

    def ensure_setup(state):
        fresh = scheduler._flat is None and not scheduler._partitions
        setup(state)
        if fresh:
            inner = [p.inner for p in scheduler._partitions] or [scheduler._flat]
            for ones in inner:
                use_oracle_search(ones)

    scheduler._ensure_setup = ensure_setup
    return scheduler

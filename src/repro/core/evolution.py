"""The online evolutionary search loop (Fig. 5).

Each iteration takes the current population ``G_i``, derives new
candidates with the four operators (refresh, uniform crossover, uniform
mutation, reorder), scores every candidate by probability sampling over
the predicted progress distributions, and keeps the best ``K`` as
``G_{i+1}``.  The best candidate overall, ``S*``, is what ONES deploys.

Because the search is *online*, the context (job roster, limits,
progress distributions) changes between invocations; the population is
re-indexed onto the new roster and refreshed at the start of every
iteration so stale candidates never survive unexamined.

The population lives as a ``(K, num_gpus)`` genome matrix between
events, and each iteration is one call of the generation kernel
(:func:`repro.core.evolution_batched.run_generation`); the kernel's
score-decomposition cache
(:class:`~repro.core.scoring_incremental.IncrementalScoringEngine`)
rides on the search.  ``tests/_evolution_oracle.py`` holds the scalar
reference search the kernel is pinned against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.evolution_batched import (
    initial_population_genomes,
    reindex_genomes,
    run_generation,
)
from repro.core.operators import EvolutionContext
from repro.core.schedule import Schedule
from repro.core.scoring_incremental import IncrementalScoringEngine
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class EvolutionConfig:
    """Hyper-parameters of the evolutionary search.

    Parameters
    ----------
    population_size:
        ``K``; the paper suggests the cluster size.  ``None`` lets the
        scheduler pick ``min(num_gpus, 64)`` — the paper's
        ``K = num_gpus`` up to its 64-GPU cluster, while still bounding
        the per-generation cost on larger clusters.
    mutation_rate:
        Per-job preemption probability θ of the uniform mutation.
    crossover_pairs:
        Number of parent pairs crossed per iteration (the paper uses K
        pairs; smaller values reduce per-event cost proportionally).
    iterations_per_invocation:
        Evolution iterations executed each time the scheduler is invoked
        (the search is continuous; each event advances it a little).
    enable_crossover / enable_mutation / enable_reorder:
        Ablation switches for the operator-ablation benchmark.
    """

    population_size: Optional[int] = None
    mutation_rate: float = 0.2
    crossover_pairs: Optional[int] = None
    iterations_per_invocation: int = 1
    enable_crossover: bool = True
    enable_mutation: bool = True
    enable_reorder: bool = True

    def __post_init__(self) -> None:
        if self.population_size is not None:
            check_positive_int(self.population_size, "population_size")
        check_probability(self.mutation_rate, "mutation_rate")
        if self.crossover_pairs is not None:
            check_positive_int(self.crossover_pairs, "crossover_pairs")
        check_positive_int(self.iterations_per_invocation, "iterations_per_invocation")

    def resolved_population_size(self, num_gpus: int) -> int:
        """The effective K for a cluster of ``num_gpus`` GPUs."""
        if self.population_size is not None:
            return self.population_size
        return max(4, min(num_gpus, 64))

    def resolved_crossover_pairs(self, population_size: int) -> int:
        """The effective number of crossover pairs per iteration."""
        if self.crossover_pairs is not None:
            return self.crossover_pairs
        return max(1, population_size // 2)


class EvolutionarySearch:
    """Maintains the population across scheduler invocations.

    The population is a ``(K, num_gpus)`` genome matrix over the
    roster it was last re-indexed to; a
    :class:`~repro.core.schedule.Schedule` is materialised only for the
    per-event winner (through the validation-skipping
    :meth:`Schedule.from_validated_genome`).
    """

    def __init__(self, config: Optional[EvolutionConfig] = None, seed: SeedLike = None) -> None:
        self.config = config or EvolutionConfig()
        self._rng = as_generator(seed)
        self._genomes: Optional[np.ndarray] = None
        self._genome_roster: Optional[Tuple[str, ...]] = None
        self.best_candidate: Optional[Schedule] = None
        self.best_score: float = float("inf")
        self.iterations_run: int = 0
        #: Best score of each generation in the most recent :meth:`step`
        #: call — the scheduler turns these into per-generation trace
        #: events (the search itself has no clock).
        self.last_iteration_scores: List[float] = []
        #: The generation kernel's score-decomposition cache.
        self.scoring_engine = IncrementalScoringEngine()
        #: Per-operator wall-clock accrued by the generation kernel
        #: (``evo_fill``/``evo_crossover``/``evo_mutation``/
        #: ``evo_selection`` + ``rescore_full``/``rescore_delta``);
        #: surfaced through ``ONESScheduler.profile_phases``.
        self.phase_seconds: Dict[str, float] = {}

    # -- population views -----------------------------------------------------------------------

    @property
    def genomes(self) -> Optional[np.ndarray]:
        """The current population's genome matrix (``None`` before the first step).

        Rows index the roster of the last :meth:`step`; the matrix is the
        search's own, so treat it as read-only.
        """
        return self._genomes

    @property
    def population_size(self) -> int:
        """Current population size (rows of the genome matrix)."""
        if self._genomes is None:
            return 0
        return int(self._genomes.shape[0])

    # -- population lifecycle -------------------------------------------------------------------

    def ensure_population(self, ctx: EvolutionContext, current: Optional[Schedule]) -> None:
        """(Re)initialise the population if empty or the roster changed.

        A *width* change — the schedulable GPU count differs from the
        population's genome length, which happens when fault injection
        takes nodes down or brings them back
        (:mod:`repro.faults.masking`) — discards the population: the old
        candidates describe placements on a cluster that no longer
        exists.  On a static cluster this branch never fires.
        """
        if self._genomes is not None and self._genomes.shape[1] != ctx.num_gpus:
            self._genomes = None
            self._genome_roster = None
            # The genome width changed (fault masking / partition-view
            # swap): the delta-scoring cache describes a cluster that no
            # longer exists.  (prepare() would also notice via the
            # population-identity check; dropping it here is explicit.)
            self.scoring_engine.invalidate()
        if self._genomes is None:
            size = self.config.resolved_population_size(ctx.num_gpus)
            self._genomes = initial_population_genomes(
                ctx, size, current=current, seed=self._rng
            )
            self._genome_roster = ctx.roster
            return
        if self._genome_roster != ctx.roster:
            genomes = reindex_genomes(self._genomes, self._genome_roster, ctx.roster)
            if current is not None:
                reindexed = current.reindexed(ctx.roster).genome
                genomes = np.concatenate([genomes, reindexed[None, :]], axis=0)
            self._genomes = genomes
            self._genome_roster = ctx.roster

    # -- one iteration ------------------------------------------------------------------------------

    def step(self, ctx: EvolutionContext, current: Optional[Schedule] = None) -> Tuple[Schedule, float]:
        """Run ``iterations_per_invocation`` evolution iterations.

        Returns the best candidate ``S*`` and its sampled score.
        """
        self.ensure_population(ctx, current)
        best: Optional[Tuple[Schedule, float]] = None
        self.last_iteration_scores = []
        for _ in range(self.config.iterations_per_invocation):
            best = self._iterate(ctx)
            self.iterations_run += 1
            self.last_iteration_scores.append(float(best[1]))
        assert best is not None
        self.best_candidate, self.best_score = best
        return best

    def _iterate(self, ctx: EvolutionContext) -> Tuple[Schedule, float]:
        """One generation on the genome matrix (no intermediate Schedules)."""
        result = run_generation(
            self._genomes,
            ctx,
            self.config,
            engine=self.scoring_engine,
            phases=self.phase_seconds,
        )
        self._genomes = result.population
        self._genome_roster = ctx.roster
        best = Schedule.from_validated_genome(ctx.roster, result.best_genome)
        return best, result.best_score

"""ONES: the online evolutionary batch-size scheduler (the paper's contribution).

* :mod:`repro.core.schedule` — the schedule genome of Fig. 1 (a job per
  GPU; batch sizes derived from the per-job limit ``R_j``).
* :mod:`repro.core.scoring` — the SRUF objective (Eq. 3/8) and the
  probability sampling of Algorithm 1.
* :mod:`repro.core.batch_limit` — the dynamic batch-size limit ``R_j``
  with the start / resume / scale-up / scale-down policies of §3.3.2.
* :mod:`repro.core.operators` — the cluster snapshot
  (:class:`~repro.core.operators.EvolutionContext`) the evolution
  operators of §3.2.2 read.
* :mod:`repro.core.evolution_batched` — the generation kernel: refresh,
  uniform crossover, uniform mutation, reorder and selection as array
  ops over the population's genome matrix.
* :mod:`repro.core.scoring_incremental` — the Eq. 8 inputs the kernel
  keeps up to date through every operator.
* :mod:`repro.core.evolution` — the iterative evolutionary search
  (Fig. 5), one kernel generation per iteration.
* :mod:`repro.core.ones_scheduler` — the ONES scheduler wired into the
  common scheduler interface.
* :mod:`repro.core.partitioned` — hierarchical ONES: one search per
  cluster shard plus a global reconciler.

``tests/_evolution_oracle.py`` holds the scalar reference of the
operators, the scoring and the search, which the kernel matches bit for
bit.
"""

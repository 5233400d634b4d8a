"""ONES: the online evolutionary batch-size scheduler (the paper's contribution).

* :mod:`repro.core.schedule` — the schedule genome of Fig. 1 (a job per
  GPU; batch sizes derived from the per-job limit ``R_j``).
* :mod:`repro.core.scoring` — the SRUF objective (Eq. 3/8) and the
  probability-sampling selection of Algorithm 1.
* :mod:`repro.core.batch_limit` — the dynamic batch-size limit ``R_j``
  with the start / resume / scale-up / scale-down policies of §3.3.2.
* :mod:`repro.core.operators` — the four evolution operators of §3.2.2:
  refresh, uniform crossover, uniform mutation and reorder.
* :mod:`repro.core.population` — population initialisation and bookkeeping.
* :mod:`repro.core.evolution` — the iterative evolutionary search (Fig. 5).
* :mod:`repro.core.evolution_batched` — the batched genome-matrix form
  of the operators (bit-identical to the scalar reference).
* :mod:`repro.core.ones_scheduler` — the ONES scheduler wired into the
  common scheduler interface.
"""

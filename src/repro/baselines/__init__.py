"""Scheduler interface and the baseline schedulers of the evaluation.

Table 3 of the paper compares ONES against three state-of-the-art DL
schedulers; this subpackage implements the common scheduler interface
(:mod:`repro.baselines.base`) and the baselines:

* :mod:`repro.baselines.drl` — a deep-reinforcement-learning scheduler in
  the style of Chic (policy-gradient, one job (re)scheduled per action,
  no preemption, elastic job size).
* :mod:`repro.baselines.tiresias` — discretised Least-Attained-Service
  multi-level feedback queue, gang scheduling at a fixed user-requested
  job size, preemption allowed.
* :mod:`repro.baselines.optimus` — greedy marginal-gain GPU allocation
  driven by a remaining-time estimate, rescheduling every 10 minutes,
  checkpoint-based resizing.
* :mod:`repro.baselines.fifo` / :mod:`repro.baselines.srtf` — simple
  reference policies used in unit tests and ablations.
"""

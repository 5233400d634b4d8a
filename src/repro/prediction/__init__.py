"""Online training-progress prediction (§3.2.1 of the paper).

ONES cannot know a job's remaining workload ``Y_j`` in advance, so it
models each job's *training progress* ``ρ ∈ (0, 1)`` as a Beta random
variable ``Be(α, β)`` whose shape parameters approximate the epochs
already processed (``α``) and the epochs still to process (``β``).  The
``β`` parameter is predicted by a regression model fitted online to the
training logs of completed jobs (footnote 1 describes a GPR predictor).

* :mod:`repro.prediction.beta` — guarded Beta distributions.
* :mod:`repro.prediction.features` — the feature vector
  ``x = {‖D‖, L_initial, Y_processed, r_loss, A}``.
* :mod:`repro.prediction.history` — the bounded, uniformly-subsampled
  training-log dataset built from completed jobs.
* :mod:`repro.prediction.blr` — Bayesian linear regression (the literal
  ``β = max(Ax + b, 1)`` model of Eq. 6).
* :mod:`repro.prediction.gpr` — Gaussian-process regression fitted by
  maximising the log marginal likelihood.
* :mod:`repro.prediction.predictor` — the online predictor that ties the
  pieces together and produces per-job Beta distributions and remaining
  workload estimates (Eq. 7).
"""

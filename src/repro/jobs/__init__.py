"""Deep-learning job models.

The scheduler never sees gradients or tensors — it sees *throughput*
(samples/second for a given batch size and placement), *progress*
(samples processed, loss, validation accuracy) and *convergence* (when a
job stops).  This subpackage provides analytic models of those three
quantities, calibrated to reproduce the qualitative behaviour the paper
reports in Figs. 2, 3, 13 and 14:

* :mod:`repro.jobs.model_zoo` — the neural-network models of Table 2
  (parameter count, FLOPs per sample, largest per-GPU batch).
* :mod:`repro.jobs.throughput` — data-parallel step time = compute +
  ring-all-reduce communication; throughput saturates and then degrades
  when a fixed global batch is split across too many workers.
* :mod:`repro.jobs.convergence` — epochs-to-target-accuracy as a function
  of the (possibly changing) global batch size, the linear LR-scaling
  rule, and the loss spike caused by abrupt batch-size jumps.
* :mod:`repro.jobs.job` — :class:`JobSpec` (static description) and
  :class:`Job` (runtime state tracked by the simulator).
"""

"""Trace-driven workloads (Table 2 of the paper).

The evaluation trace mixes computer-vision and NLP training jobs over
reduced dataset sizes so every job finishes within about two hours.
This subpackage provides:

* :mod:`repro.workload.tasks` — the Table-2 catalogue: 50 distinct
  workload templates (model × dataset × dataset size) plus the
  hyper-parameters of their convergence profiles.
* :mod:`repro.workload.trace` — a Poisson-arrival trace generator over
  that catalogue.
* :mod:`repro.workload.replay` — (de)serialisation of traces and trace
  statistics, so experiments can replay identical workloads across
  schedulers.
"""

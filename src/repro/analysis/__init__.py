"""Analysis of simulation results: metrics, significance tests, reports.

* :mod:`repro.analysis.metrics` — JCT / execution / queuing summaries,
  distributions and cumulative-frequency curves (Fig. 15).
* :mod:`repro.analysis.stats` — Wilcoxon signed-rank significance tests
  (Table 4).
* :mod:`repro.analysis.reporting` — text tables and ASCII charts used by
  the benchmark harness to print paper-style figures.
"""

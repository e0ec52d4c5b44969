"""Experiment orchestration.

- :mod:`repro.experiments.runner` -- one-call experiment execution:
  workload x scheduler x fault environment -> metrics;
- :mod:`repro.experiments.figures` -- regenerates the data series behind
  every figure and table of the paper's evaluation (Section IV);
- :mod:`repro.experiments.campaign` -- multi-seed Monte-Carlo campaigns
  with confidence intervals, optional worker-pool parallelism, and
  deterministic seed-order merging;
- :mod:`repro.experiments.cache` -- the content-addressed on-disk cache
  completed campaign seed runs persist in.
"""

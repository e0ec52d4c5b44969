"""Workload generators.

- :mod:`repro.workloads.bbw` -- the Brake-By-Wire case study, message
  parameters regenerated verbatim from the paper's Table II;
- :mod:`repro.workloads.acc` -- the Adaptive Cruise Controller case
  study, Table III verbatim;
- :mod:`repro.workloads.synthetic` -- the synthetic static test cases of
  Section IV-A (periods 5-50 ms, deadlines 1-20 ms, seeded);
- :mod:`repro.workloads.sae` -- the SAE J2056/1-style aperiodic message
  set (30 messages, 50 ms period and deadline, IDs mapped after the
  static slots);
- :mod:`repro.workloads.bundled` -- the periodic set each bundled
  workload name (``bbw``, ``acc``, ``synthetic``) stands for.
"""

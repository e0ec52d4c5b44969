"""CoEfficient: the paper's primary contribution.

The pieces map one-to-one onto Section III of the paper:

- :mod:`repro.core.tasks` -- the three-class task model (hard periodic /
  hard aperiodic / soft aperiodic), Section III-A;
- :mod:`repro.core.slack_stealing` -- the fixed-priority slack stealer
  (``S_{i,t} = A_i(r_i(t)+1) - C_i(t) - I_i(t)``), Section III-B;
- :mod:`repro.core.acceptance` -- the hard-aperiodic acceptance test with
  the theta accumulator over ``[alpha_k, alpha_k + D_k]``, Section III-C;
- :mod:`repro.core.retransmission` -- differentiated retransmission
  planning against the reliability goal rho (Theorem 1), Section III-E;
- :mod:`repro.core.selective_slack` -- reliability-aware selective slack
  computation, Section III-F;
- :mod:`repro.core.queueing` -- shared queue/buffer mechanics for
  FlexRay scheduler policies;
- :mod:`repro.core.coefficient` -- the CoEfficient scheduler itself:
  cooperative dual-channel scheduling of static, retransmitted and
  dynamic segments.
"""

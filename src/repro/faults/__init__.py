"""Fault-model substrate.

Transient faults on the FlexRay bus (radiation, interference, temperature
variation) are modelled as independent bit errors at a configured Bit
Error Rate, following Section III-E of the paper:

- :mod:`repro.faults.ber` -- BER models and the per-frame corruption
  probability ``p_z = 1 - (1 - BER)^{W_z}``;
- :mod:`repro.faults.injector` -- the seeded injector the cluster engines
  consult for every transmission;
- :mod:`repro.faults.iec61508` -- IEC 61508 safety-integrity levels and
  the reliability goal ``rho = 1 - gamma`` they induce;
- :mod:`repro.faults.analysis` -- Theorem 1 (probability that all message
  deadlines are met given retransmission counts) and its inverse.
"""

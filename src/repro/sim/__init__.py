"""Simulation substrate.

This subpackage is the foundation every other part of the reproduction is
built on.  It provides:

- :mod:`repro.sim.rng` -- deterministic, stream-split random number
  management so that every experiment is reproducible bit-for-bit;
- :mod:`repro.sim.engine` -- :class:`~repro.sim.engine.EngineMode`, the
  choice between the per-slot interpreter and the vectorized engine;
- :mod:`repro.sim.trace` -- per-frame lifecycle trace recording;
- :mod:`repro.sim.metrics` -- metric accumulation (bandwidth utilization,
  latency statistics, deadline-miss ratios, completion time).

The FlexRay cluster executes cycle by cycle (the protocol is
time-triggered).  There is no general event list: message arrivals come
from per-source release streams merged by
:class:`~repro.protocol.arrivals.ArrivalMultiplexer`.
"""

"""FlexRay backend: the first protocol behind the neutral core.

The cycle-accurate engine itself (time hierarchy, frame model, TDMA
static segment, FTDMA dynamic segment, channels, CHI buffering and the
cluster driver) lives in :mod:`repro.protocol`; this package pins
FlexRay's parameter defaults and frame-overhead model
(:mod:`repro.flexray.params`), the bus-guardian fault scenario
(:mod:`repro.flexray.bus_guardian`) and the backend registration
(:mod:`repro.flexray.backend`).

The model follows the FlexRay 2.1 protocol description summarized in
Section II of the paper.  All timing arithmetic is in integer macroticks.
"""

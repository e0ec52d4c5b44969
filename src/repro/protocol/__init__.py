"""Protocol-neutral scheduling core.

The cycle-accurate engine of the repo, factored out of the original
FlexRay package: segment geometry (:mod:`~repro.protocol.geometry`),
frame and signal models, TDMA static segment, minislot-arbitrated
dynamic segment, channels, controller-host interface buffers and the
cluster driver.  Everything here speaks only the contracts in
:mod:`~repro.protocol.contracts`; concrete protocols (FlexRay,
time-triggered Ethernet) plug in through
:mod:`~repro.protocol.backend`.
"""

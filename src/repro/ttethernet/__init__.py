"""Time-triggered Ethernet backend.

The second protocol behind the neutral core of :mod:`repro.protocol`:
integration-cycle geometry (:mod:`~repro.ttethernet.params`) and
jitter-constrained TT-window placement per Minaeva et al.,
arXiv:1711.00398 (:mod:`~repro.ttethernet.schedule`), registered as
``"ttethernet"`` in :mod:`repro.protocol.backend`.
"""

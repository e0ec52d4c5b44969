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

from repro.protocol.backend import (
    ProtocolBackend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.protocol.contracts import FaultOracle, GeometryContract, TraceIdentity
from repro.protocol.geometry import SegmentGeometry

__all__ = [
    "FaultOracle",
    "GeometryContract",
    "ProtocolBackend",
    "SegmentGeometry",
    "TraceIdentity",
    "available_backends",
    "get_backend",
    "register_backend",
]

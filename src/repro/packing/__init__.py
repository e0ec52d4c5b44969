"""Signal-to-frame packing substrate.

FlexRay transmits frames, but automotive workloads are specified as
signals; the packing layer bridges the two (the "frame packing" substrate
of the paper's related work [9], [31]):

- small signals from the same ECU with the same period are *merged* into
  one frame (first-fit decreasing bin packing), reducing per-frame header
  overhead and slot count;
- signals larger than one frame's payload are *split* into chunk frames;
- sub-cycle-period messages are expanded into per-phase *groups*, each
  owning its own slot, because the TDMA static segment sends at cycle
  granularity.
"""

from repro.packing.frame_packing import (
    PackedMessage,
    PackingResult,
    derive_params_for,
    pack_signals,
)

__all__ = [
    "PackedMessage",
    "PackingResult",
    "derive_params_for",
    "pack_signals",
]

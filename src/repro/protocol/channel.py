"""Dual-channel abstraction.

FlexRay offers up to two physical channels, A and B.  The paper's central
architectural claim is that the channels should be scheduled
*cooperatively* (CoEfficient) rather than as naive mirrors (FSPEC's
best-effort duplication).  The channel abstraction therefore carries a
per-channel slot counter and an independent fault stream, but no policy:
which frame goes on which channel is entirely the scheduler's decision.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Tuple

from repro.protocol.slots import SlotCounter

__all__ = ["Channel", "ChannelSet"]


class Channel(enum.Enum):
    """Physical channel identifier."""

    A = "A"
    B = "B"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality; it is computed in C, where the
    # inherited ``Enum.__hash__`` is a Python call per lookup of a
    # channel-keyed map (once per static query).
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ChannelSet:
    """The channels a cluster is configured with, plus their counters.

    Args:
        count: 1 (channel A only) or 2 (A and B).
    """

    def __init__(self, count: int = 2) -> None:
        if count not in (1, 2):
            raise ValueError(f"channel count must be 1 or 2, got {count}")
        self._channels: List[Channel] = [Channel.A]
        if count == 2:
            self._channels.append(Channel.B)
        self._slot_counters: Dict[Channel, SlotCounter] = {
            channel: SlotCounter() for channel in self._channels
        }

    def __len__(self) -> int:
        return len(self._channels)

    def __iter__(self) -> Iterator[Channel]:
        return iter(self._channels)

    def __contains__(self, channel: Channel) -> bool:
        return channel in self._channels

    @property
    def channels(self) -> List[Channel]:
        """Configured channels, A first."""
        return list(self._channels)

    def slot_counter(self, channel: Channel) -> SlotCounter:
        """The per-channel slot counter (SlotCounter(A) / SlotCounter(B))."""
        if channel not in self._slot_counters:
            raise KeyError(f"channel {channel} not configured")
        return self._slot_counters[channel]

    def reset_counters(self) -> None:
        """Reset all slot counters (start of a communication cycle)."""
        for counter in self._slot_counters.values():
            counter.reset()

    def pairs(self) -> List[Tuple[Channel, SlotCounter]]:
        """(channel, counter) pairs in channel order."""
        return [(channel, self._slot_counters[channel])
                for channel in self._channels]

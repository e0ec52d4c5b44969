"""Static-segment-only fault-tolerant scheduling.

Models the related-work line the paper cites as [4] (Tanasa et al.,
"Scheduling for fault-tolerant communication on the static segment of
FlexRay") and [14], [15]: fault tolerance is provided entirely by
*pre-scheduled* static redundancy -- each frame is duplicated on the
second channel where capacity allows -- and the dynamic segment is left
to plain FTDMA with no retransmission support at all.

"However, this work only considers the static segments of FlexRay"
(Section V-C): event-triggered traffic gets whatever the dynamic segment
offers, failures there are unrecovered, and no capacity ever crosses the
segment boundary.
"""

from __future__ import annotations

from repro.core.queueing import QueueingPolicyBase
from repro.protocol.channel import Channel
from repro.protocol.frame import PendingFrame
from repro.protocol.schedule import ChannelStrategy
from repro.packing.frame_packing import PackingResult

__all__ = ["StaticOnlyPolicy"]


class StaticOnlyPolicy(QueueingPolicyBase):
    """Pre-scheduled static redundancy, no retransmission anywhere."""

    name = "StaticOnly"

    def __init__(self, packing: PackingResult,
                 drop_expired_dynamic: bool = True) -> None:
        # No retransmissions -> no reserved dynamic slot; the dynamic
        # messages keep their natural frame IDs.
        super().__init__(packing, reserve_retransmission_slot=False,
                         drop_expired_dynamic=drop_expired_dynamic)

    def channel_strategy(self) -> str:
        return ChannelStrategy.DUPLICATE_BEST_EFFORT

    def serves_dynamic(self, channel: Channel) -> bool:
        return channel is Channel.A

    def handle_failure(self, pending: PendingFrame, segment: str,
                       end_mt: int) -> None:
        # Fault tolerance is the pre-scheduled duplicate or nothing.
        self.counters["retx_abandoned"] += 1
        if self.obs.enabled:
            self.obs.inc("baseline.unrecovered_failures")

"""Dynamic-segment-only priority scheduling.

Models the related-work line the paper cites as [16]-[18] (Schmidt &
Schmidt "Message scheduling for the FlexRay protocol: the dynamic
segment", Jung et al. "Priority-based scheduling of dynamic segment"):
the dynamic segment is optimized in isolation -- event messages get
priority-ordered FTDMA service on *both* channels' dynamic segments --
while the static segment is a plain single-copy schedule and faults are
nobody's problem.

Compared against CoEfficient this isolates the value of (a) the
reliability machinery and (b) static-slack cooperation, since this
baseline's dynamic service is otherwise identical.
"""

from __future__ import annotations

from repro.core.queueing import QueueingPolicyBase
from repro.protocol.channel import Channel
from repro.protocol.frame import PendingFrame
from repro.protocol.schedule import ChannelStrategy
from repro.packing.frame_packing import PackingResult

__all__ = ["DynamicPriorityPolicy"]


class DynamicPriorityPolicy(QueueingPolicyBase):
    """Priority-optimized dynamic segment, fault-oblivious static."""

    name = "DynamicPriority"

    def __init__(self, packing: PackingResult,
                 drop_expired_dynamic: bool = True) -> None:
        super().__init__(packing, reserve_retransmission_slot=False,
                         drop_expired_dynamic=drop_expired_dynamic)

    def channel_strategy(self) -> str:
        return ChannelStrategy.DISTRIBUTE

    def serves_dynamic(self, channel: Channel) -> bool:
        return True  # dual-channel dynamic service is this line's focus

    def handle_failure(self, pending: PendingFrame, segment: str,
                       end_mt: int) -> None:
        # Fault-oblivious: corrupted frames are simply lost.
        self.counters["retx_abandoned"] += 1
        if self.obs.enabled:
            self.obs.inc("baseline.unrecovered_failures")

"""FSPEC: the standard FlexRay-specification scheduling behaviour.

The paper's main comparator.  Its three defining (in)efficiencies, each
implemented literally:

1. **Blanket redundancy**: static frames are duplicated on the second
   channel wherever capacity allows (best-effort duplication) -- "FlexRay
   leverages static and pre-defined schedules that contain redundant
   transmission tasks".  The duplicate is transmitted whether or not the
   primary succeeded, which is precisely the bandwidth the paper says is
   wasted.

2. **Best-effort retransmission for all segments**: every corrupted
   frame -- any message, no selection, no budget -- is re-queued for
   retransmission through the dynamic segment until it succeeds or its
   deadline passes.  Under bursts this floods the (single-channel)
   dynamic segment and starves low-priority event traffic.

3. **Separate scheduling**: the static and dynamic segments never share
   capacity.  Idle static slots stay idle; dynamic messages are served
   only by channel A's dynamic segment (the spec's separate per-segment
   configuration), leaving channel B's dynamic segment unused.
"""

from __future__ import annotations

from repro.core.queueing import QueueingPolicyBase
from repro.protocol.channel import Channel
from repro.protocol.frame import PendingFrame
from repro.protocol.schedule import ChannelStrategy
from repro.packing.frame_packing import PackingResult

__all__ = ["FspecPolicy"]


class FspecPolicy(QueueingPolicyBase):
    """Standard FlexRay specification behaviour (see module docstring).

    Args:
        packing: The packed workload.
        retransmission_copies: Open-loop best-effort copies queued per
            instance for every message not already covered by a
            channel-B duplicate -- "best-effort retransmission for all
            segments", priced blind because FSPEC has no per-message
            reliability analysis.
        feedback: Reactive-ARQ extension (see the queueing base).
    """

    name = "FSPEC"

    def __init__(self, packing: PackingResult,
                 retransmission_copies: int = 1,
                 feedback: bool = False,
                 drop_expired_dynamic: bool = True) -> None:
        super().__init__(packing, reserve_retransmission_slot=True,
                         feedback=feedback,
                         drop_expired_dynamic=drop_expired_dynamic)
        if retransmission_copies < 0:
            raise ValueError("retransmission_copies must be >= 0")
        self._retransmission_copies = retransmission_copies

    def channel_strategy(self) -> str:
        return ChannelStrategy.DUPLICATE_BEST_EFFORT

    def serves_dynamic(self, channel: Channel) -> bool:
        # Separate scheduling: the dynamic segment is configured on one
        # channel only.
        return channel is Channel.A

    def redundancy_for_arrival(self, pending: PendingFrame) -> int:
        # Best-effort retransmission for ALL segments: every instance
        # gets the same blind copy count, except where the channel-B
        # duplicate already doubles it.
        key = (pending.message_id, pending.frame.chunk)
        placements = self._placements.get(key, ())
        if len(placements) >= 2:
            if self.obs.enabled:
                self.obs.inc("baseline.duplicate_covered")
            return 0  # already duplicated in the static schedule
        return self._retransmission_copies

    def handle_failure(self, pending: PendingFrame, segment: str,
                       end_mt: int) -> None:
        # Feedback extension: retry anything that can still make its
        # deadline -- still no selection, no budget, no slack check.
        if end_mt >= pending.deadline_mt:
            self.counters["retx_abandoned"] += 1
            return
        if self.chunk_delivered(pending):
            return
        self.push_retransmission(pending.retry(end_mt))
        self.counters["retx_enqueued"] += 1
        if self.obs.enabled:
            # Best-effort ARQ admits unconditionally -- the contrast
            # with CoEfficient's acceptance test in the event stream.
            self.obs.emit("policy.retx_admission",
                          message_id=pending.message_id,
                          instance=pending.instance,
                          admitted=True, open_loop=False)

    # No slack_frame_for override: idle static slots stay idle (the
    # separate-scheduling waste the paper criticizes).

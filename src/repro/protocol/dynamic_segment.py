"""FTDMA dynamic-segment engine.

Implements FlexRay's minislot-counting arbitration (Section II-A of the
paper, derived from ByteFlight):

- the slot counter continues past the static slots
  (``gNumberOfStaticSlots + 1``, ``+2``, ...);
- at each dynamic slot, if the owning node has a message queued *and* the
  minislot counter has not passed pLatestTx, the node transmits; the
  dynamic slot then spans the frame's length in minislots (plus the
  dynamic-slot idle phase);
- otherwise the dynamic slot collapses to exactly one minislot;
- the segment ends when all minislots are consumed.

Lower frame IDs therefore get both earlier access and better odds of
fitting before the segment ends -- the priority-based scheme whose
low-priority starvation the paper's cooperative scheduling addresses.

Each channel arbitrates independently (dual-channel FTDMA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.protocol.channel import Channel, ChannelSet
from repro.protocol.cycle import CycleLayout
from repro.protocol.frame import PendingFrame, frame_duration_mt
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.policy import SchedulerPolicy
from repro.protocol.slots import MinislotCounter
from repro.sim.trace import FrameRecord, TraceRecorder, TransmissionOutcome

__all__ = ["DynamicSegmentEngine", "DynamicSlotResult"]

# Module globals load faster than enum members looked up through their
# class, and every attempt picks one.
_CORRUPTED = TransmissionOutcome.CORRUPTED
_DELIVERED = TransmissionOutcome.DELIVERED


@dataclass(frozen=True)
class DynamicSlotResult:
    """What happened in one dynamic slot (exposed for tests/inspection)."""

    channel: Channel
    slot_id: int
    transmitted: bool
    minislots_consumed: int
    message_id: Optional[str] = None


class DynamicSegmentEngine:
    """Executes dynamic segments cycle by cycle.

    Args:
        params: Cluster parameters.
        layout: Cycle time geometry.
        channels: Configured channel set.
        policy: The scheduling policy under test.
        corrupts: Fault oracle ``(channel, total_bits, start_mt) -> bool``.
        trace: Trace recorder all attempts are written to.
    """

    def __init__(
        self,
        params: SegmentGeometry,
        layout: CycleLayout,
        channels: ChannelSet,
        policy: SchedulerPolicy,
        corrupts: Callable[[Channel, int, int], bool],
        trace: TraceRecorder,
    ) -> None:
        self._params = params
        self._layout = layout
        self._channels = channels
        self._policy = policy
        self._corrupts = corrupts
        self._trace = trace
        self.last_cycle_results: List[DynamicSlotResult] = []

    def execute_cycle(
        self,
        cycle: int,
        deliver_arrivals_until: Callable[[int], None],
    ) -> None:
        """Run the dynamic segment of ``cycle`` on every channel."""
        self.last_cycle_results = []
        if self._params.g_number_of_minislots == 0:
            return
        segment_start, __ = self._layout.dynamic_segment_window(cycle)
        deliver_arrivals_until(segment_start)
        for channel, slot_counter in self._channels.pairs():
            slot_counter.jump_to(self._params.first_dynamic_slot_id)
            self._arbitrate_channel(channel, cycle)

    def _arbitrate_channel(self, channel: Channel, cycle: int) -> None:
        """Minislot-counting loop for one channel."""
        params = self._params
        minislots = MinislotCounter(params.g_number_of_minislots)
        latest_tx = params.effective_latest_tx
        slot_id = params.first_dynamic_slot_id

        while not minislots.exhausted and slot_id <= params.last_dynamic_slot_id:
            start_mt = self._layout.minislot_start(cycle, minislots.elapsed)
            pending: Optional[PendingFrame] = None
            if minislots.can_start_transmission(latest_tx):
                pending = self._policy.dynamic_frame_for(
                    channel, slot_id, start_mt, minislots.remaining
                )
            if pending is None:
                minislots.consume(1)
                self.last_cycle_results.append(DynamicSlotResult(
                    channel=channel, slot_id=slot_id, transmitted=False,
                    minislots_consumed=1,
                ))
                slot_id += 1
                continue

            needed = params.minislots_for_bits(pending.payload_bits)
            if needed > minislots.remaining:
                # The frame no longer fits this cycle: FlexRay holds it for
                # the next cycle; the dynamic slot still consumes one
                # minislot.  The policy is told nothing -- the frame stays
                # at the head of its queue (the engine never popped it;
                # see SchedulerPolicy.dynamic_frame_for contract).
                self._policy.on_dynamic_hold(pending, channel)
                minislots.consume(1)
                self.last_cycle_results.append(DynamicSlotResult(
                    channel=channel, slot_id=slot_id, transmitted=False,
                    minislots_consumed=1,
                ))
                slot_id += 1
                continue

            self._transmit(channel, cycle, slot_id, start_mt, pending)
            minislots.consume(needed)
            self.last_cycle_results.append(DynamicSlotResult(
                channel=channel, slot_id=slot_id, transmitted=True,
                minislots_consumed=needed, message_id=pending.message_id,
            ))
            slot_id += 1

    def _transmit(self, channel: Channel, cycle: int, slot_id: int,
                  start_mt: int, pending: PendingFrame) -> None:
        """Record one dynamic transmission and report its outcome."""
        action_start = start_mt + self._params.gd_minislot_action_point_offset_mt
        duration = frame_duration_mt(pending.payload_bits, self._params)
        end = action_start + duration
        corrupted = self._corrupts(channel, pending.total_bits, action_start)
        outcome = _CORRUPTED if corrupted else _DELIVERED
        self._trace.record(FrameRecord(
            message_id=pending.message_id,
            instance=pending.instance,
            channel=channel.value,
            slot_id=slot_id,
            cycle=cycle,
            start=action_start,
            end=end,
            bits=pending.total_bits,
            payload_bits=pending.payload_bits,
            segment="dynamic",
            outcome=outcome,
            is_retransmission=pending.is_retransmission,
            generation_time=pending.generation_time_mt,
            deadline=pending.deadline_mt,
            chunk=pending.frame.chunk,
        ))
        self._policy.on_outcome("dynamic", ((pending, channel, outcome, end),))

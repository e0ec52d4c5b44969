"""TDMA static-segment engine.

Executes the static segment of one communication cycle: for every channel
and every static slot, the engine asks the policy for the slot's frame,
transmits it at the slot's action point, rolls the fault dice, records the
attempt, and feeds the outcome back to the policy.

The engine enforces the physical rules the policy cannot be trusted with:

- a frame must fit inside the static slot (action-point offsets included);
- a frame may not be transmitted before it was generated;
- slot counters advance exactly once per slot per channel.
"""

from __future__ import annotations

from typing import Callable

from repro.protocol.channel import Channel, ChannelSet
from repro.protocol.cycle import CycleLayout
from repro.protocol.frame import frame_duration_mt
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.policy import SchedulerPolicy
from repro.sim.trace import FrameRecord, TraceRecorder, TransmissionOutcome

__all__ = ["StaticSegmentEngine"]

# Module globals load faster than enum members looked up through their
# class, and every attempt picks one.
_CORRUPTED = TransmissionOutcome.CORRUPTED
_DELIVERED = TransmissionOutcome.DELIVERED


class StaticSegmentEngine:
    """Executes static segments cycle by cycle.

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

    def execute_cycle(
        self,
        cycle: int,
        deliver_arrivals_until: Callable[[int], None],
        first_slot: int = 1,
    ) -> None:
        """Run static slots ``first_slot..N`` of ``cycle`` on every channel.

        Slots are processed in time order; before each slot's action
        point, host arrivals up to that instant are delivered so that a
        message produced mid-cycle can ride a later slot of the same
        cycle (the behaviour the paper's sub-cycle-period messages need).

        Args:
            cycle: Communication-cycle counter (0-based).
            deliver_arrivals_until: Callback flushing host arrivals with
                generation time <= its argument into the policy.
            first_slot: Slot to start from; > 1 when the compiled-round
                stepper hands the remainder of a segment back to the
                interpreter (the skipped prefix is then already
                accounted for).
        """
        if first_slot <= 1:
            self._channels.reset_counters()
        else:
            for __, counter in self._channels.pairs():
                counter.jump_to(first_slot)
        for slot_id in range(first_slot,
                             self._params.g_number_of_static_slots + 1):
            action_point = self._layout.static_action_point(cycle, slot_id)
            deliver_arrivals_until(action_point)
            for channel, counter in self._channels.pairs():
                if counter.value != slot_id:
                    raise RuntimeError(
                        f"slot counter desync on channel {channel}: "
                        f"expected {slot_id}, got {counter.value}"
                    )
                self.execute_slot(channel, cycle, slot_id, action_point)
            for __, counter in self._channels.pairs():
                counter.advance()

    def execute_slot(self, channel: Channel, cycle: int, slot_id: int,
                     action_point: int) -> None:
        """Transmit (or idle) one (channel, slot) pair."""
        pending = self._policy.static_frame_for(
            channel, cycle, slot_id, action_point
        )
        if pending is None:
            return

        duration = frame_duration_mt(pending.payload_bits, self._params)
        slot_start, slot_end = self._layout.static_slot_window(cycle, slot_id)
        if action_point + duration > slot_end:
            raise ValueError(
                f"policy bug: frame {pending.message_id} "
                f"({pending.total_bits} bits, {duration} MT) does not fit "
                f"static slot {slot_id} "
                f"({self._params.gd_static_slot_mt} MT)"
            )
        if pending.generation_time_mt > action_point:
            raise ValueError(
                f"policy bug: frame {pending.message_id}#{pending.instance} "
                f"transmitted at t={action_point} before its generation "
                f"at t={pending.generation_time_mt}"
            )

        corrupted = self._corrupts(channel, pending.total_bits, action_point)
        outcome = _CORRUPTED if corrupted else _DELIVERED
        end = action_point + duration
        self._trace.record(FrameRecord(
            message_id=pending.message_id,
            instance=pending.instance,
            channel=channel.value,
            slot_id=slot_id,
            cycle=cycle,
            start=action_point,
            end=end,
            bits=pending.total_bits,
            payload_bits=pending.payload_bits,
            segment="static",
            outcome=outcome,
            is_retransmission=pending.is_retransmission,
            generation_time=pending.generation_time_mt,
            deadline=pending.deadline_mt,
            chunk=pending.frame.chunk,
        ))
        self._policy.on_outcome("static", ((pending, channel, outcome, end),))

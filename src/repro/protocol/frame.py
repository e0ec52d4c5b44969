"""Protocol-neutral frame model.

A frame is ``protocol overhead | payload``; the overhead (headers,
CRCs, inter-frame gaps) is a per-backend constant carried on the frame
itself (FlexRay: 8 bytes; time-triggered Ethernet: MAC header + FCS +
preamble + IFG).  The model carries the fields the scheduler and fault
analysis need -- frame ID, payload size, cycle filtering -- and the
duration arithmetic that the segment engines use.

Two classes exist at different levels:

- :class:`Frame` -- a *configured* frame: the static description bound to
  a slot ID (what a schedule table holds).
- :class:`PendingFrame` -- one *instance* of a frame waiting to be sent:
  carries its generation time, absolute deadline, and retransmission
  status (what queues hold).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

from repro.protocol.geometry import SegmentGeometry

__all__ = ["HARD_MAX_PAYLOAD_BITS", "CYCLE_REPETITIONS", "FrameKind",
           "Frame", "PendingFrame", "frame_duration_mt"]

#: Structural upper bound on any backend's frame payload (a maximal
#: 1518-byte Ethernet frame).  The *protocol* limit is the geometry's
#: ``max_payload_bits``, enforced wherever a parameter set is in hand
#: (:func:`frame_duration_mt`, the packer, the verifier).
HARD_MAX_PAYLOAD_BITS = 1518 * 8

#: The cycle repetitions a frame may use: powers of two up to the 64
#: values of the FlexRay cycle counter.
CYCLE_REPETITIONS = (1, 2, 4, 8, 16, 32, 64)

_pending_sequence = itertools.count()
_tuple_new = tuple.__new__


class FrameKind(enum.Enum):
    """Scheduling class of a frame, mirroring the paper's task taxonomy."""

    STATIC = "static"
    """Hard-deadline periodic (static-segment primary transmission)."""

    RETRANSMISSION = "retransmission"
    """Hard-deadline aperiodic (selective retransmission)."""

    DYNAMIC = "dynamic"
    """Soft-deadline aperiodic (dynamic-segment event message)."""


# A module global loads several times faster than an enum member looked
# up through its class, and the trace asks once per recorded attempt.
_RETRANSMISSION = FrameKind.RETRANSMISSION


def frame_duration_mt(payload_bits: int, params: SegmentGeometry) -> int:
    """Wire duration of a frame in macroticks (overhead included).

    Args:
        payload_bits: Payload length in bits (0..params.max_payload_bits).
        params: Cluster configuration (bit rate, macrotick length,
            frame overhead).
    """
    if payload_bits < 0:
        raise ValueError(f"payload_bits must be >= 0, got {payload_bits}")
    if payload_bits > params.max_payload_bits:
        raise ValueError(
            f"payload of {payload_bits} bits exceeds the protocol maximum "
            f"of {params.max_payload_bits}"
        )
    return params.transmission_mt(payload_bits + params.frame_overhead_bits)


@dataclass(frozen=True, slots=True)
class Frame:
    """A configured FlexRay frame.

    Attributes:
        frame_id: Slot ID this frame transmits in (1-based; dynamic frame
            IDs start after the static slots).
        message_id: Logical message the frame carries (one message may be
            split over several frames by the packer).
        payload_bits: Payload length in bits.
        producer_ecu: Index of the sending ECU.
        base_cycle: First cycle (within the 64-cycle matrix) the frame is
            sent in; used for cycle multiplexing.
        cycle_repetition: Send every ``cycle_repetition`` cycles (power of
            two in {1, 2, 4, 8, 16, 32, 64} per the spec).
        kind: The frame's :class:`FrameKind`.
        chunk: Index of this frame within its message when the packer
            split a large message over several frames (0-based).
        chunk_count: Total frames the message is split over.
        preferred_phase_mt: Planning hint: the in-cycle macrotick offset
            after which this frame's payload becomes available, so the
            slot allocator can place the slot just after it (minimizes
            release-to-slot queueing delay).  ``None`` means no
            preference.
        overhead_bits: Wire overhead this frame's protocol adds to the
            payload (the packer stamps it from the geometry's
            ``frame_overhead_bits``); part of the fault model's exposed
            bit count.
        base_flexibility: Planning hint: how many cycles past
            ``base_cycle`` the allocator may shift this frame's base
            when slots run short.  Each shifted cycle adds one cycle of
            worst-case latency, so the packer bounds it by the deadline;
            0 pins the base.
    """

    frame_id: int
    message_id: str
    payload_bits: int
    producer_ecu: int
    base_cycle: int = 0
    cycle_repetition: int = 1
    kind: FrameKind = FrameKind.STATIC
    chunk: int = 0
    chunk_count: int = 1
    preferred_phase_mt: Optional[int] = None
    base_flexibility: int = 0
    overhead_bits: int = 64

    def __post_init__(self) -> None:
        if self.frame_id < 1:
            raise ValueError(f"frame_id must be >= 1, got {self.frame_id}")
        if not 0 < self.payload_bits <= HARD_MAX_PAYLOAD_BITS:
            raise ValueError(
                f"payload_bits must be in (0, {HARD_MAX_PAYLOAD_BITS}], "
                f"got {self.payload_bits}"
            )
        if self.overhead_bits < 0:
            raise ValueError(
                f"overhead_bits must be >= 0, got {self.overhead_bits}"
            )
        if self.cycle_repetition not in CYCLE_REPETITIONS:
            raise ValueError(
                f"cycle_repetition must be a power of two <= 64, "
                f"got {self.cycle_repetition}"
            )
        if not 0 <= self.base_cycle < self.cycle_repetition:
            raise ValueError(
                f"base_cycle must be in [0, {self.cycle_repetition}), "
                f"got {self.base_cycle}"
            )
        if not 0 <= self.chunk < self.chunk_count:
            raise ValueError(
                f"chunk must be in [0, {self.chunk_count}), got {self.chunk}"
            )
        if self.base_flexibility < 0:
            raise ValueError(
                f"base_flexibility must be >= 0, got {self.base_flexibility}"
            )

    @property
    def total_bits(self) -> int:
        """Wire size: payload plus the protocol's per-frame overhead."""
        return self.payload_bits + self.overhead_bits

    def sends_in_cycle(self, cycle: int) -> bool:
        """Whether cycle multiplexing selects this frame in ``cycle``."""
        return cycle % self.cycle_repetition == self.base_cycle

    def duration_mt(self, params: SegmentGeometry) -> int:
        """Wire duration in macroticks."""
        return frame_duration_mt(self.payload_bits, params)


class _PendingFields(NamedTuple):
    """The fields of a :class:`PendingFrame`, in construction order."""

    frame: Frame
    instance: int
    generation_time_mt: int
    deadline_mt: int
    priority: int
    kind: FrameKind = FrameKind.STATIC
    attempt: int = 0
    sequence: int = 0


class PendingFrame(_PendingFields):
    """One frame instance waiting for (re)transmission.

    Queues order instances by :meth:`queue_key`: the sequence number is
    a global monotone counter, so equal-priority instances are FIFO --
    the ordering the paper's dynamic-segment queues use.

    An immutable named tuple, like
    :class:`~repro.protocol.arrivals.Release`: every host release builds
    one per chunk, and a tuple constructs several times faster than a
    frozen dataclass, whose generated ``__init__`` sets every field
    through ``object.__setattr__``.  Construction still validates the
    fields, positionally or by keyword, and ``_replace`` goes through
    the same checks.

    Attributes:
        frame: The configured frame being instantiated.
        instance: Periodic job index, or arrival index for aperiodics.
        generation_time_mt: Absolute production time in macroticks.
        deadline_mt: Absolute deadline in macroticks.
        priority: Smaller is more urgent.
        kind: Scheduling class; distinguishes a retransmission instance
            from the original static instance of the same frame.
        attempt: 0 for the first transmission, k for the k-th retry.
        sequence: Global tie-breaking counter (assigned automatically
            when omitted).
    """

    __slots__ = ()

    def __new__(cls, frame: Frame, instance: int, generation_time_mt: int,
                deadline_mt: int, priority: int,
                kind: FrameKind = FrameKind.STATIC, attempt: int = 0,
                sequence: Optional[int] = None) -> "PendingFrame":
        if instance < 0:
            raise ValueError(f"instance must be >= 0, got {instance}")
        if deadline_mt < generation_time_mt:
            raise ValueError(
                f"{frame.message_id}#{instance}: deadline "
                f"{deadline_mt} precedes generation "
                f"{generation_time_mt}"
            )
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        if sequence is None:
            sequence = next(_pending_sequence)
        return _tuple_new(cls, (frame, instance, generation_time_mt,
                                deadline_mt, priority, kind, attempt,
                                sequence))

    @classmethod
    def _make(cls, iterable) -> "PendingFrame":
        return cls(*iterable)

    @property
    def message_id(self) -> str:
        """Logical message identifier (delegates to the frame)."""
        return self.frame.message_id

    @property
    def payload_bits(self) -> int:
        """Payload bits (delegates to the frame)."""
        return self.frame.payload_bits

    @property
    def total_bits(self) -> int:
        """Wire bits including overhead (delegates to the frame)."""
        return self.frame.total_bits

    @property
    def is_retransmission(self) -> bool:
        """Whether this instance is a retry."""
        return self.attempt > 0 or self.kind is _RETRANSMISSION

    def queue_key(self) -> tuple:
        """Ordering key for priority queues: urgency then FIFO."""
        return (self.priority, self.generation_time_mt, self.sequence)

    def retry(self, now_mt: int) -> "PendingFrame":
        """Create the next retransmission attempt of this instance.

        The retry keeps the original generation time and deadline (latency
        is measured from first production) but is reclassified as a
        hard-deadline aperiodic, per the paper's task model.
        """
        return PendingFrame(self.frame, self.instance,
                            self.generation_time_mt, self.deadline_mt,
                            self.priority, _RETRANSMISSION,
                            self.attempt + 1)

    def slack_at(self, now_mt: int, duration_mt: int) -> int:
        """Laxity if transmission started now: deadline - now - duration."""
        return self.deadline_mt - now_mt - duration_mt

"""Per-frame lifecycle trace recording.

The paper's evaluation hardware includes "an independent module ... to
receive and maintain all messages that are transmitted on the FlexRay
bus".  :class:`TraceRecorder` is that module's software twin: every frame
transmission attempt on either channel is recorded with its timing and
outcome, and the metric computations in :mod:`repro.sim.metrics` are pure
functions of this trace.

Keeping metrics out of the protocol engine keeps the engine honest -- it
cannot "know" it is being measured -- and lets tests assert detailed
invariants (e.g. no two transmissions overlap on one channel).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["TransmissionOutcome", "FrameRecord", "InstanceSummary",
           "TraceRecorder", "canonical_trace_bytes", "trace_digest"]


class TransmissionOutcome(enum.Enum):
    """Result of a single frame transmission attempt on one channel."""

    DELIVERED = "delivered"
    """The frame arrived uncorrupted."""

    CORRUPTED = "corrupted"
    """A transient fault corrupted the frame (CRC failure at receivers)."""

    DROPPED = "dropped"
    """The frame was never transmitted (queue overflow / horizon end)."""


class FrameRecord(NamedTuple):
    """One transmission attempt of one frame on one channel.

    An immutable, hashable named tuple: a dense run builds tens of
    thousands of these, and a tuple constructs several times faster
    than a frozen dataclass, whose generated ``__init__`` sets every
    field through ``object.__setattr__``.

    Attributes:
        message_id: Stable identifier of the logical message.
        instance: Periodic-instance index (0-based) or 0 for aperiodics.
        channel: Channel name, ``"A"`` or ``"B"``.
        slot_id: FlexRay slot ID the frame was sent in.
        cycle: Communication-cycle counter at transmission.
        start: Transmission start, absolute macroticks.
        end: Transmission end, absolute macroticks.
        bits: Frame length in bits (payload + overhead).
        payload_bits: Useful payload bits carried.
        segment: ``"static"`` or ``"dynamic"``.
        outcome: The attempt's :class:`TransmissionOutcome`.
        is_retransmission: Whether this attempt is a retransmission.
        generation_time: When the message instance was produced, macroticks.
        deadline: Absolute deadline of the instance, macroticks.
        chunk: Chunk index when a large message is split over several
            frames (0-based); single-frame messages use chunk 0.
    """

    message_id: str
    instance: int
    channel: str
    slot_id: int
    cycle: int
    start: int
    end: int
    bits: int
    payload_bits: int
    segment: str
    outcome: TransmissionOutcome
    is_retransmission: bool
    generation_time: int
    deadline: int
    chunk: int = 0


class InstanceSummary(NamedTuple):
    """Delivery outcome of one message instance.

    ``delivered_at`` is ``None`` until every chunk landed; ``segment`` is
    that of the first attempt (``None`` if it was never transmitted).
    """

    message_id: str
    instance: int
    generation_time: int
    deadline: int
    delivered_at: Optional[int]
    segment: Optional[str]


@dataclass(slots=True)
class _InstanceState:
    """Mutable delivery state of one message instance.

    A multi-chunk instance is delivered only when every chunk has been
    delivered; its delivery time is the time the *last* chunk landed.
    """

    generation_time: int
    deadline: int
    chunks: int = 1
    chunk_delivered_at: Dict[int, int] = field(default_factory=dict)
    segment: Optional[str] = None

    @property
    def delivered_at(self) -> Optional[int]:
        if len(self.chunk_delivered_at) < self.chunks:
            return None
        return max(self.chunk_delivered_at.values())


class TraceRecorder:
    """Accumulates :class:`FrameRecord` entries and instance outcomes.

    The recorder also tracks first-successful-delivery time per message
    instance, which is what latency and deadline-miss metrics are defined
    over (a later redundant copy does not improve latency).
    """

    def __init__(self, protocol: str = "generic") -> None:
        #: Backend identity of the geometry the trace was produced
        #: under; stamped into the canonical byte form so traces of
        #: different protocols can never compare equal.
        self.protocol = protocol
        self._records: List[FrameRecord] = []
        self._instances: Dict[Tuple[str, int], _InstanceState] = {}
        # Incremental count of fully delivered instances.  Delivery is
        # monotone -- a record can only add or improve a chunk's
        # delivery time, never remove one -- so counting transitions at
        # record time keeps completion-mode polling O(1) instead of
        # O(instances) per cycle.
        self._delivered = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FrameRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[FrameRecord]:
        """All transmission attempts, in recording order."""
        return list(self._records)

    def note_instance(self, message_id: str, instance: int,
                      generation_time: int, deadline: int,
                      chunks: int = 1) -> None:
        """Register a message instance the moment it is produced.

        Must be called before any transmission attempt of that instance is
        recorded; instances that are produced but never transmitted still
        count toward deadline-miss statistics.

        Args:
            chunks: Number of frames the instance is split over; the
                instance counts as delivered once every chunk landed.
        """
        if chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {chunks}")
        key = (message_id, instance)
        if key not in self._instances:
            self._instances[key] = _InstanceState(
                generation_time=generation_time, deadline=deadline,
                chunks=chunks,
            )

    def record(self, record: FrameRecord) -> None:
        """Append a transmission attempt and update instance state."""
        self._records.append(record)
        self._note_record(record)

    def record_batch(self, records: List[FrameRecord]) -> None:
        """Append many attempts at once, preserving order.

        Equivalent to calling :meth:`record` once per entry; the
        vectorized engine uses it to flush a whole cycle batch with one
        list extend instead of per-record method dispatch.
        """
        self._records.extend(records)
        note = self._note_record
        for record in records:
            note(record)

    def _note_record(self, record: FrameRecord) -> None:
        key = (record.message_id, record.instance)
        state = self._instances.get(key)
        if state is None:
            state = _InstanceState(
                generation_time=record.generation_time, deadline=record.deadline
            )
            self._instances[key] = state
        if state.segment is None:
            state.segment = record.segment
        if record.outcome is TransmissionOutcome.DELIVERED:
            existing = state.chunk_delivered_at.get(record.chunk)
            if existing is None or record.end < existing:
                if (existing is None
                        and len(state.chunk_delivered_at) + 1 == state.chunks):
                    self._delivered += 1
                state.chunk_delivered_at[record.chunk] = record.end

    def instance_count(self) -> int:
        """Number of message instances produced."""
        return len(self._instances)

    def delivered_count(self) -> int:
        """Number of instances delivered at least once."""
        return self._delivered

    def delivery_time(self, message_id: str, instance: int) -> Optional[int]:
        """First successful delivery time of an instance, or ``None``."""
        state = self._instances.get((message_id, instance))
        return None if state is None else state.delivered_at

    def instance_summaries(self) -> List[InstanceSummary]:
        """One :class:`InstanceSummary` per instance, in production order.

        The sorted query methods below are views over this list.
        """
        return [
            InstanceSummary(message_id, instance, state.generation_time,
                            state.deadline, state.delivered_at, state.segment)
            for (message_id, instance), state in self._instances.items()
        ]

    def latencies(self) -> List[Tuple[str, int, int]]:
        """Sorted ``(message_id, instance, latency_mt)`` of delivered instances."""
        return sorted(
            (s.message_id, s.instance, s.delivered_at - s.generation_time)
            for s in self.instance_summaries() if s.delivered_at is not None
        )

    def missed_instances(self) -> List[Tuple[str, int]]:
        """Sorted instances never delivered, or delivered after their deadline."""
        return sorted(
            (s.message_id, s.instance) for s in self.instance_summaries()
            if s.delivered_at is None or s.delivered_at > s.deadline
        )

    def last_delivery_time(self) -> Optional[int]:
        """Time the final instance delivery completed, or ``None`` if none."""
        return max((s.delivered_at for s in self.instance_summaries()
                    if s.delivered_at is not None), default=None)

    def attempts_for(self, message_id: str) -> int:
        """Total transmission attempts across all instances of a message."""
        return sum(1 for r in self._records if r.message_id == message_id)

    def records_for_segment(self, segment: str) -> List[FrameRecord]:
        """All attempts in one segment (``"static"`` or ``"dynamic"``)."""
        return [r for r in self._records if r.segment == segment]

    def canonical_bytes(self) -> bytes:
        """Canonical serialization (:func:`canonical_trace_bytes`)."""
        return canonical_trace_bytes(self)

    def digest(self) -> str:
        """Canonical SHA-256 digest (:func:`trace_digest`)."""
        return trace_digest(self)

    def verify_no_channel_overlap(self) -> List[str]:
        """Check that no two transmissions overlap on the same channel.

        Returns:
            A list of human-readable violation descriptions (empty when the
            trace is physically consistent).  Exposed as a method rather
            than an assertion so property tests can call it directly.
        """
        violations: List[str] = []
        by_channel: Dict[str, List[FrameRecord]] = {}
        for record in self._records:
            by_channel.setdefault(record.channel, []).append(record)
        for channel, records in by_channel.items():
            ordered = sorted(records, key=lambda r: (r.start, r.end))
            for previous, current in zip(ordered, ordered[1:]):
                if current.start < previous.end:
                    violations.append(
                        f"channel {channel}: {previous.message_id}#{previous.instance}"
                        f" [{previous.start},{previous.end}) overlaps "
                        f"{current.message_id}#{current.instance}"
                        f" [{current.start},{current.end})"
                    )
        return violations


def canonical_trace_bytes(trace: TraceRecorder) -> bytes:
    """Byte-exact canonical serialization of a trace.

    One line per :class:`FrameRecord`, every field in declaration order,
    in recording order -- so two traces serialize identically **iff**
    they recorded the same attempts with the same fields in the same
    order.  This is the equivalence relation the differential engine
    tests (vectorized vs interpreter) are proved under; it is deliberately
    stricter than metric equality.

    The first line names the trace's protocol backend, so two backends
    producing coincidentally identical frame sequences still serialize
    (and digest) differently -- trace identity includes the protocol.
    """
    names = FrameRecord._fields
    lines = [f"protocol={getattr(trace, 'protocol', 'generic')}"]
    for record in trace:
        values = []
        for name, value in zip(names, record):
            if isinstance(value, TransmissionOutcome):
                value = value.value
            values.append(f"{name}={value!r}")
        lines.append("|".join(values))
    return "\n".join(lines).encode("utf-8")


def trace_digest(trace: TraceRecorder) -> str:
    """SHA-256 over :func:`canonical_trace_bytes` (hex)."""
    return hashlib.sha256(canonical_trace_bytes(trace)).hexdigest()

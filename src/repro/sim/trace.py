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

The recorder pays once per segment, not once per frame, on the batch
engine's path:

- the vectorized engine hands each settled segment plan over as one
  block (:meth:`TraceRecorder.record_batch`); a :class:`FrameRecord` is
  built only when a reader iterates the trace;
- the record-level metric sums run as attempts are recorded
  (:meth:`TraceRecorder.reduction`), so the metric reduction walks the
  instances, never the records;
- :func:`trace_digest` streams the canonical lines into the hash;
- a pickled trace holds one primitive column per field, with no engine
  objects, and iterates those columns after unpickling.
"""

from __future__ import annotations

import enum
import hashlib
from array import array
from itertools import islice
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

__all__ = ["TransmissionOutcome", "FrameRecord", "InstanceSummary",
           "TraceReduction", "TraceRecorder", "canonical_trace_bytes",
           "trace_digest"]


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


class TraceReduction(NamedTuple):
    """The record-level metric sums, kept running as the trace records.

    Attributes:
        occupied_mt: Medium macroticks of every attempt.
        useful_mt: Payload share of the macroticks of the first delivered
            copy of each ``(message, instance, chunk)``, summed in
            recording order.
        corrupted: Attempts lost to transient faults.
        retransmissions: Attempts flagged as retransmissions.
    """

    occupied_mt: int
    useful_mt: float
    corrupted: int
    retransmissions: int


#: Pickled outcome codes (index into this tuple).
_OUTCOMES = tuple(TransmissionOutcome)
_OUTCOME_CODE = {outcome: code for code, outcome in enumerate(_OUTCOMES)}

#: Array typecode per FrameRecord field in the pickled form: integers
#: pack into machine words, the outcome code and the retransmission flag
#: into bytes, and strings ("") stay lists (pickle stores each repeated
#: string object once).
_COLUMN_TYPECODES = ("", "q", "", "q", "q", "q", "q", "q", "q", "", "B",
                     "B", "q", "q", "q")
_OUTCOME_FIELD = FrameRecord._fields.index("outcome")


class _Columns(list):
    """Recorded attempts as one column per :class:`FrameRecord` field.

    The pickled form of a trace, and its first part after unpickling:
    it holds only primitive values (``bool`` flags and outcomes as byte
    codes), so a stored trace references no engine object.
    """

    @classmethod
    def of(cls, records: Iterable[FrameRecord]) -> "_Columns":
        columns = cls(array(code) if code else []
                      for code in _COLUMN_TYPECODES)
        records = iter(records)
        # Transposed a slice at a time: zip(*rows) runs in C, and the
        # slice bounds the transient records a large trace builds.
        while rows := list(islice(records, 4096)):
            fields = list(zip(*rows))
            fields[_OUTCOME_FIELD] = map(_OUTCOME_CODE.__getitem__,
                                         fields[_OUTCOME_FIELD])
            for column, values in zip(columns, fields):
                column.extend(values)
        return columns

    def records(self) -> Iterator[FrameRecord]:
        outcomes = map(_OUTCOMES.__getitem__, self[_OUTCOME_FIELD])
        flags = map(bool, self[_OUTCOME_FIELD + 1])
        return map(FrameRecord._make, zip(
            *self[:_OUTCOME_FIELD], outcomes, flags,
            *self[_OUTCOME_FIELD + 2:]))


def _block_records(plan, cycle, segment, lane_names, bits,
                   verdicts) -> Iterator[FrameRecord]:
    """The :class:`FrameRecord` of each entry of a recorded block."""
    corrupted = TransmissionOutcome.CORRUPTED
    delivered = TransmissionOutcome.DELIVERED
    for (lane, slot_id, start, end, pending), total_bits, corrupt in zip(
            plan, bits, verdicts):
        frame = pending.frame
        # Positional, in field order: keyword arguments double the
        # construction cost of a named tuple.
        yield FrameRecord(
            frame.message_id, pending.instance, lane_names[lane], slot_id,
            cycle, start, end, total_bits, frame.payload_bits, segment,
            corrupted if corrupt else delivered, pending.is_retransmission,
            pending.generation_time_mt, pending.deadline_mt, frame.chunk)


class TraceRecorder:
    """Records transmission attempts and instance outcomes.

    Attempts arrive one :class:`FrameRecord` at a time (:meth:`record`)
    or one settled segment plan at a time (:meth:`record_batch`); both
    append to one ordered part list, and iteration builds the
    :class:`FrameRecord` of a block entry only when a reader asks.

    The recorder also tracks first-successful-delivery time per message
    instance, which is what latency and deadline-miss metrics are defined
    over (a later redundant copy does not improve latency), and keeps the
    record-level metric sums running (:meth:`reduction`), so the metric
    reduction never walks the records again.
    """

    def __init__(self, protocol: str = "generic") -> None:
        #: Backend identity of the geometry the trace was produced
        #: under; stamped into the canonical byte form so traces of
        #: different protocols can never compare equal.
        self.protocol = protocol
        # FrameRecord, block tuple (see record_batch) or _Columns parts,
        # in recording order.
        self._parts: List[object] = []
        self._count = 0
        self._instances: Dict[Tuple[str, int], _InstanceState] = {}
        # Incremental count of fully delivered instances.  Delivery is
        # monotone -- a record can only add or improve a chunk's
        # delivery time, never remove one -- so counting transitions at
        # record time keeps completion-mode polling O(1) instead of
        # O(instances) per cycle.
        self._delivered = 0
        self._occupied_mt = 0
        self._useful_mt = 0.0
        self._corrupted = 0
        self._retransmissions = 0

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[FrameRecord]:
        for part in self._parts:
            kind = type(part)
            if kind is FrameRecord:
                yield part
            elif kind is tuple:
                yield from _block_records(*part)
            else:
                yield from part.records()

    @property
    def records(self) -> List[FrameRecord]:
        """All transmission attempts, in recording order."""
        return list(self)

    def reduction(self) -> TraceReduction:
        """The record-level metric sums over every attempt so far."""
        return TraceReduction(self._occupied_mt, self._useful_mt,
                              self._corrupted, self._retransmissions)

    def __getstate__(self) -> Dict[str, object]:
        # Blocks reference the engine's PendingFrame objects; the stored
        # form is columns of primitives, converted once here.
        state = self.__dict__.copy()
        parts = self._parts
        if parts and not (len(parts) == 1 and type(parts[0]) is _Columns):
            state["_parts"] = [_Columns.of(self)]
        return state

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
        self._parts.append(record)
        self._count += 1
        duration = record.end - record.start
        self._occupied_mt += duration
        if record.is_retransmission:
            self._retransmissions += 1
        key = (record.message_id, record.instance)
        state = self._instances.get(key)
        if state is None:
            state = _InstanceState(
                generation_time=record.generation_time, deadline=record.deadline
            )
            self._instances[key] = state
        if state.segment is None:
            state.segment = record.segment
        if record.outcome is TransmissionOutcome.CORRUPTED:
            self._corrupted += 1
        elif record.outcome is TransmissionOutcome.DELIVERED:
            delivered_at = state.chunk_delivered_at
            existing = delivered_at.get(record.chunk)
            if existing is None:
                if len(delivered_at) + 1 == state.chunks:
                    self._delivered += 1
                delivered_at[record.chunk] = record.end
                if record.bits > 0:
                    self._useful_mt += (duration * record.payload_bits
                                        / record.bits)
            elif record.end < existing:
                delivered_at[record.chunk] = record.end

    def record_batch(self, plan: Sequence[tuple], cycle: int, segment: str,
                     lane_names: Sequence[str], bits: Sequence[int],
                     verdicts: Sequence[bool]) -> None:
        """Append one settled segment plan as a single block.

        Equivalent to calling :meth:`record` once per entry, in order.
        ``plan`` holds ``(lane, slot_id, start, end, pending)`` entries,
        where ``pending`` is the transmitted (immutable) pending frame
        and ``lane_names[lane]`` its channel name; ``bits`` and
        ``verdicts`` give each entry's total frame bits and corruption
        verdict.  The recorder keeps the block as handed over -- no
        caller may mutate it afterwards -- and builds its
        :class:`FrameRecord` entries only when read.
        """
        self._parts.append((plan, cycle, segment, lane_names, bits,
                            verdicts))
        self._count += len(plan)
        instances = self._instances
        occupied_mt = self._occupied_mt
        useful_mt = self._useful_mt
        corrupted = self._corrupted
        retransmissions = self._retransmissions
        delivered = self._delivered
        for (__, ___, start, end, pending), total_bits, corrupt in zip(
                plan, bits, verdicts):
            frame = pending.frame
            duration = end - start
            occupied_mt += duration
            if pending.is_retransmission:
                retransmissions += 1
            key = (frame.message_id, pending.instance)
            state = instances.get(key)
            if state is None:
                state = _InstanceState(
                    generation_time=pending.generation_time_mt,
                    deadline=pending.deadline_mt)
                instances[key] = state
            if state.segment is None:
                state.segment = segment
            if corrupt:
                corrupted += 1
                continue
            delivered_at = state.chunk_delivered_at
            chunk = frame.chunk
            existing = delivered_at.get(chunk)
            if existing is None:
                if len(delivered_at) + 1 == state.chunks:
                    delivered += 1
                delivered_at[chunk] = end
                if total_bits > 0:
                    useful_mt += duration * frame.payload_bits / total_bits
            elif end < existing:
                delivered_at[chunk] = end
        self._occupied_mt = occupied_mt
        self._useful_mt = useful_mt
        self._corrupted = corrupted
        self._retransmissions = retransmissions
        self._delivered = delivered

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
        return sum(1 for r in self if r.message_id == message_id)

    def records_for_segment(self, segment: str) -> List[FrameRecord]:
        """All attempts in one segment (``"static"`` or ``"dynamic"``)."""
        return [r for r in self if r.segment == segment]

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
        for record in self:
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


#: One canonical line: every field as ``name=repr(value)``, in field order.
_CANONICAL_LINE = "|".join(f"{name}=%r" for name in FrameRecord._fields)


def _canonical_lines(trace: TraceRecorder) -> Iterator[str]:
    """The lines of :func:`canonical_trace_bytes`, one at a time."""
    yield f"protocol={getattr(trace, 'protocol', 'generic')}"
    line = _CANONICAL_LINE
    for record in trace:
        values = list(record)
        outcome = values[_OUTCOME_FIELD]
        if isinstance(outcome, TransmissionOutcome):
            values[_OUTCOME_FIELD] = outcome.value
        yield line % tuple(values)


def canonical_trace_bytes(trace: TraceRecorder) -> bytes:
    """Byte-exact canonical serialization of a trace.

    One line per :class:`FrameRecord`, every field in declaration order
    (the outcome by its value), in recording order -- so two traces
    serialize identically **iff** they recorded the same attempts with
    the same fields in the same order.  This is the equivalence relation
    the differential engine tests (vectorized vs interpreter) are proved
    under; it is deliberately stricter than metric equality.

    The first line names the trace's protocol backend, so two backends
    producing coincidentally identical frame sequences still serialize
    (and digest) differently -- trace identity includes the protocol.
    """
    return "\n".join(_canonical_lines(trace)).encode("utf-8")


def trace_digest(trace: TraceRecorder) -> str:
    """SHA-256 over :func:`canonical_trace_bytes` (hex).

    Streams the lines into the hash instead of joining them first.
    """
    digest = hashlib.sha256()
    separator = ""
    for line in _canonical_lines(trace):
        digest.update((separator + line).encode("utf-8"))
        separator = "\n"
    return digest.hexdigest()

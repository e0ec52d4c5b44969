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
engine's path, and holds nothing the cycle collector must walk:

- the vectorized engine hands each settled segment plan over as one
  block (:meth:`TraceRecorder.record_batch`); the recorder copies it
  into a tuple of primitive rows (strings, ints and bools, no engine
  object and no enum) and builds a :class:`FrameRecord` only when a
  reader iterates the trace;
- the per-instance delivery state is a plain tuple of primitives per
  instance, which the collector untracks like the rows;
- the record-level metric sums run as attempts are recorded
  (:meth:`TraceRecorder.reduction`), so the metric reduction walks the
  instances, never the records;
- :func:`trace_digest` streams the canonical lines into the hash;
- a pickled trace holds one primitive column per field and iterates
  those columns after unpickling.
"""

from __future__ import annotations

import enum
import hashlib
from array import array
from itertools import islice
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


#: Stored outcome codes (index into this tuple).
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
    packed columns take less memory and load faster than the recorded
    row blocks (a campaign holds every seed's unpickled trace).
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


#: A recorded attempt is stored as a row of primitives: every
#: :class:`FrameRecord` field except ``cycle`` and ``segment`` (kept
#: once per block), with the outcome as its index in ``_OUTCOMES``
#: (the batch engine stores its corruption verdict, a bool, which
#: indexes the same way: ``False`` is delivered, ``True`` corrupted).
_CORRUPTED = _OUTCOME_CODE[TransmissionOutcome.CORRUPTED]


def _block_records(cycle: int, segment: str,
                   rows: Tuple[tuple, ...]) -> Iterator[FrameRecord]:
    """The :class:`FrameRecord` of each row of a recorded block."""
    outcomes = _OUTCOMES
    for (message_id, instance, channel, slot_id, start, end, bits,
         payload_bits, outcome, is_retransmission, generation_time,
         deadline, chunk) in rows:
        # Positional, in field order: keyword arguments double the
        # construction cost of a named tuple.
        yield FrameRecord(
            message_id, instance, channel, slot_id, cycle, start, end,
            bits, payload_bits, segment, outcomes[outcome],
            is_retransmission, generation_time, deadline, chunk)


class TraceRecorder:
    """Records transmission attempts and instance outcomes.

    Attempts arrive one :class:`FrameRecord` at a time (:meth:`record`)
    or one settled segment plan at a time (:meth:`record_batch`); both
    append a block of primitive rows to one ordered part list, and
    iteration builds the :class:`FrameRecord` of a row only when a
    reader asks.

    The recorder also tracks first-successful-delivery time per message
    instance, which is what latency and deadline-miss metrics are defined
    over (a later redundant copy does not improve latency), and keeps the
    record-level metric sums running (:meth:`reduction`), so the metric
    reduction never walks the records again.

    Everything it keeps is a list, tuple, dict or array of ints,
    strings, bools and ``None``: the cycle collector untracks such
    tuples, so a long trace adds nothing to the young collections it
    survives.
    """

    def __init__(self, protocol: str = "generic") -> None:
        #: Backend identity of the geometry the trace was produced
        #: under; stamped into the canonical byte form so traces of
        #: different protocols can never compare equal.
        self.protocol = protocol
        # ``(cycle, segment, rows)`` blocks (see _block_records) or
        # _Columns parts, in recording order.
        self._parts: List[object] = []
        self._count = 0
        # (message_id, instance) -> (generation_time, deadline, chunks,
        # segment, delivered_at): the segment of the first attempt
        # (None before it) and the delivery time (None until every
        # chunk landed).  A single-chunk instance is delivered by its
        # earliest delivered copy.
        self._instances: Dict[Tuple[str, int], tuple] = {}
        # (message_id, instance) -> {chunk: earliest delivery time} of
        # the instances split over several chunks; an instance is
        # delivered once every chunk is, at the time the *last* chunk
        # landed.
        self._chunk_times: Dict[Tuple[str, int], Dict[int, int]] = {}
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
            if type(part) is tuple:
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
        # The stored form is one packed column per field, converted
        # once here (see _Columns).
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
        self.note_releases(((message_id, instance, generation_time, deadline,
                             range(chunks)),))

    def note_releases(self, releases: Iterable[tuple]) -> None:
        """Register one delivery pass of host releases.

        :meth:`note_instance` for every entry, in order, in one call.
        Each entry is ``(message_id, instance, generation_time, deadline,
        frames)`` -- a :class:`~repro.protocol.arrivals.Release` -- whose
        instance is split over ``len(frames)`` chunk frames (at least
        one: a source refuses an empty chunk list).
        """
        instances = self._instances
        for message_id, instance, generation_time, deadline, frames \
                in releases:
            key = (message_id, instance)
            if key not in instances:
                instances[key] = (generation_time, deadline, len(frames),
                                  None, None)

    def record(self, record: FrameRecord) -> None:
        """Append a transmission attempt and update instance state."""
        rows = ((record.message_id, record.instance, record.channel,
                 record.slot_id, record.start, record.end, record.bits,
                 record.payload_bits, _OUTCOME_CODE[record.outcome],
                 record.is_retransmission, record.generation_time,
                 record.deadline, record.chunk),)
        self._parts.append((record.cycle, record.segment, rows))
        self._account(record.segment, rows)

    def record_batch(self, plan: Sequence[tuple], cycle: int, segment: str,
                     lane_names: Sequence[str], bits: Sequence[int],
                     verdicts: Sequence[bool]) -> None:
        """Append one settled segment plan as a single block.

        Equivalent to calling :meth:`record` once per entry, in order.
        ``plan`` holds ``(lane, slot_id, start, end, pending)`` entries,
        where ``pending`` is the transmitted pending frame and
        ``lane_names[lane]`` its channel name; ``bits`` and ``verdicts``
        give each entry's total frame bits and corruption verdict.  The
        recorder copies each entry's fields into a row of primitives
        and keeps no reference to the plan, its pending frames or the
        outcome enum; :class:`FrameRecord` entries are built only when
        read.
        """
        rows = tuple([
            (pending.frame.message_id, pending.instance, lane_names[lane],
             slot_id, start, end, total_bits, pending.frame.payload_bits,
             corrupt, pending.is_retransmission, pending.generation_time_mt,
             pending.deadline_mt, pending.frame.chunk)
            for (lane, slot_id, start, end, pending), total_bits, corrupt
            in zip(plan, bits, verdicts)])
        self._parts.append((cycle, segment, rows))
        self._account(segment, rows)

    def _account(self, segment: str, rows: Tuple[tuple, ...]) -> None:
        """Fold one block's rows into the instance state and the sums."""
        self._count += len(rows)
        instances = self._instances
        occupied_mt = self._occupied_mt
        useful_mt = self._useful_mt
        corrupted = self._corrupted
        retransmissions = self._retransmissions
        delivered = self._delivered
        for (message_id, instance, __, ___, start, end, bits, payload_bits,
             outcome, is_retransmission, generation_time, deadline,
             chunk) in rows:
            duration = end - start
            occupied_mt += duration
            if is_retransmission:
                retransmissions += 1
            key = (message_id, instance)
            state = instances.get(key)
            if state is None:
                chunks, first_segment, delivered_at = 1, None, None
            else:
                generation_time, deadline, chunks, first_segment, \
                    delivered_at = state
            changed = first_segment is None
            if changed:
                first_segment = segment
            if outcome:
                if outcome == _CORRUPTED:
                    corrupted += 1
            elif chunks == 1:
                if delivered_at is None:
                    delivered += 1
                    if bits > 0:
                        useful_mt += duration * payload_bits / bits
                    delivered_at = end
                    changed = True
                elif end < delivered_at:
                    delivered_at = end
                    changed = True
            else:
                times = self._chunk_times.setdefault(key, {})
                existing = times.get(chunk)
                if existing is None:
                    times[chunk] = end
                    if bits > 0:
                        useful_mt += duration * payload_bits / bits
                    if len(times) == chunks:
                        delivered += 1
                elif end < existing:
                    times[chunk] = end
                if len(times) >= chunks:
                    delivered_at = max(times.values())
                changed = True
            if changed:
                instances[key] = (generation_time, deadline, chunks,
                                  first_segment, delivered_at)
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
        return None if state is None else state[4]

    def instance_summaries(self) -> List[InstanceSummary]:
        """One :class:`InstanceSummary` per instance, in production order.

        The sorted query methods below are views over this list.
        """
        return [
            InstanceSummary(message_id, instance, generation_time, deadline,
                            delivered_at, segment)
            for (message_id, instance), (generation_time, deadline, __,
                                         segment, delivered_at)
            in self._instances.items()
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

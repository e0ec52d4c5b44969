"""Frame packing: signals -> schedulable packed messages.

The packer performs three transformations, in order:

1. **Merge** (bin packing): periodic signals from the same ECU with the
   same period are first-fit-decreasing packed into frames bounded by the
   static slot's payload capacity.  A packed frame's offset is the
   *maximum* member offset (the instant all member values exist) and its
   deadline the *minimum* member deadline (conservative on both ends).
2. **Split** (chunking): a signal larger than one payload becomes a
   multi-chunk message; the instance is delivered when all chunks are.
3. **Group expansion**: a packed message with period < communication
   cycle is expanded into ``m = ceil(cycle / period)`` groups; group
   ``g`` carries instances ``g, g+m, g+2m, ...`` with period ``m x
   period`` and offset ``offset + g x period``, each group owning its own
   static slot.  This is how production FlexRay tooling maps
   sub-cycle-period signals onto the cycle raster.

The result knows how to emit the two artifacts schedulers need: the
chunk :class:`~repro.protocol.frame.Frame` templates (for schedule-table
construction) and the message sources (for the hosts).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.protocol.arrivals import MessageSource, PeriodicSource, SporadicSource
from repro.protocol.frame import Frame, FrameKind
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.signal import Signal, SignalSet
from repro.sim.rng import RngStream

__all__ = ["PackedMessage", "PackingResult", "pack_signals",
           "derive_params_for"]


@dataclass(frozen=True)
class PackedMessage:
    """One schedulable message produced by the packer.

    Attributes:
        message_id: Unique ID; merged frames are named after their
            members (``"pack:E0:P8:0"``), group expansions carry an
            ``@g<i>`` suffix.
        chunks: Chunk frame templates (one per chunk; slot IDs unbound).
        period_ms: Effective period (group-expanded when applicable).
        offset_ms: Effective first-release offset.
        deadline_ms: Relative deadline.
        priority: Deadline-monotonic priority (smaller = more urgent).
        aperiodic: Whether this is an event-triggered (dynamic) message.
        member_signals: Names of the original signals carried.
    """

    message_id: str
    chunks: Tuple[Frame, ...]
    period_ms: float
    offset_ms: float
    deadline_ms: float
    priority: int
    aperiodic: bool = False
    member_signals: Tuple[str, ...] = ()

    @property
    def payload_bits(self) -> int:
        """Total payload carried per instance, summed over chunks."""
        return sum(chunk.payload_bits for chunk in self.chunks)

    @property
    def chunk_count(self) -> int:
        """Number of chunk frames per instance."""
        return len(self.chunks)


@dataclass
class PackingResult:
    """The packer's full output for one workload.

    Attributes:
        messages: All packed messages (periodic groups and aperiodics).
        params: The cluster parameters packing was performed against.
    """

    messages: List[PackedMessage]
    params: SegmentGeometry

    def periodic_messages(self) -> List[PackedMessage]:
        """Time-triggered messages, deadline-monotonic order."""
        periodic = [m for m in self.messages if not m.aperiodic]
        return sorted(periodic, key=lambda m: (m.deadline_ms, m.message_id))

    def aperiodic_messages(self) -> List[PackedMessage]:
        """Event-triggered messages, priority order."""
        aperiodic = [m for m in self.messages if m.aperiodic]
        return sorted(aperiodic, key=lambda m: (m.priority, m.message_id))

    def static_frames(self) -> List[Frame]:
        """All periodic chunk templates in placement-priority order."""
        frames: List[Frame] = []
        for message in self.periodic_messages():
            frames.extend(message.chunks)
        return frames

    def dynamic_frame_ids(self) -> Dict[str, int]:
        """Frame-ID assignment for aperiodic messages (priority order).

        Lower frame IDs arbitrate earlier in the dynamic segment, so
        higher-priority messages get lower IDs, starting right after the
        static slots -- the ID ranges the paper quotes (81-110 for 80
        static slots) fall out of exactly this rule.
        """
        first = self.params.first_dynamic_slot_id
        return {
            message.message_id: first + index
            for index, message in enumerate(self.aperiodic_messages())
        }

    def build_sources(
        self,
        rng: RngStream,
        instance_limit: Optional[int] = None,
    ) -> List[MessageSource]:
        """Instantiate host sources for every packed message.

        Sporadic inter-arrivals carry :class:`SporadicSource`'s default
        relative jitter of 0.2.

        Args:
            rng: Experiment stream (sporadic jitter draws split from it).
            instance_limit: Per-message instance cap (running-time
                experiments); ``None`` = unbounded.
        """
        params = self.params
        sources: List[MessageSource] = []
        id_of = self.dynamic_frame_ids()
        for message in self.messages:
            if message.aperiodic:
                frame_id = id_of[message.message_id]
                chunks = tuple(
                    dataclasses.replace(chunk, frame_id=frame_id)
                    for chunk in message.chunks
                )
                sources.append(SporadicSource(
                    chunks=chunks,
                    min_interarrival_mt=params.ms_to_mt(message.period_ms),
                    offset_mt=params.ms_to_mt(message.offset_ms),
                    deadline_mt=params.ms_to_mt(message.deadline_ms),
                    priority=message.priority,
                    rng=rng.split(f"sporadic/{message.message_id}"),
                    limit=instance_limit,
                ))
            else:
                sources.append(PeriodicSource(
                    chunks=message.chunks,
                    period_mt=params.ms_to_mt(message.period_ms),
                    offset_mt=params.ms_to_mt(message.offset_ms),
                    deadline_mt=params.ms_to_mt(message.deadline_ms),
                    priority=message.priority,
                    limit=instance_limit,
                ))
        return sources

    def summary(self) -> Dict[str, float]:
        """Headline packing statistics."""
        periodic = self.periodic_messages()
        return {
            "messages": len(self.messages),
            "periodic": len(periodic),
            "aperiodic": len(self.aperiodic_messages()),
            "static_frames": len(self.static_frames()),
            "payload_bits_per_cycle": sum(
                m.payload_bits * (self.params.cycle_ms / m.period_ms)
                for m in periodic
            ),
        }


def _bin_pack_signals(signals: List[Signal],
                      capacity_bits: int) -> List[List[Signal]]:
    """First-fit decreasing bin packing of signals into frame payloads."""
    bins: List[Tuple[int, List[Signal]]] = []  # (used_bits, members)
    for signal in sorted(signals, key=lambda s: (-s.size_bits, s.name)):
        placed = False
        for index, (used, members) in enumerate(bins):
            if used + signal.size_bits <= capacity_bits:
                bins[index] = (used + signal.size_bits, members + [signal])
                placed = True
                break
        if not placed:
            bins.append((signal.size_bits, [signal]))
    return [members for __, members in bins]


def _split_into_chunks(payload_bits: int, capacity_bits: int) -> List[int]:
    """Even chunk sizes for a payload exceeding one frame."""
    count = math.ceil(payload_bits / capacity_bits)
    base = payload_bits // count
    remainder = payload_bits - base * count
    return [base + (1 if index < remainder else 0) for index in range(count)]


def _message_priority(deadline_ms: float) -> int:
    """Deadline-monotonic priority (microsecond resolution)."""
    return int(round(deadline_ms * 1000))


def _select_repetition(period_ms: float, deadline_ms: float,
                       cycle_ms: float) -> int:
    """Cycle repetition for a message, preferring phase alignment.

    The service interval ``repetition * cycle`` must not exceed the
    period (never under-serve) nor -- when the deadline allows slack --
    the deadline.  Among admissible powers of two, the largest one that
    *divides* the period is preferred: then every release lands in a
    firing cycle and the release-to-slot delay stays sub-cycle.  When no
    repetition > 1 divides the period, fall back to 1 (fire every cycle;
    the buffer's overwrite semantics keep this correct, merely using
    more slots).
    """
    limit = min(period_ms, max(cycle_ms, deadline_ms))
    best = 1
    repetition = 1
    while repetition * 2 * cycle_ms <= limit and repetition < 64:
        repetition *= 2
        quotient = period_ms / (repetition * cycle_ms)
        if abs(quotient - round(quotient)) < 1e-9:
            best = repetition
    return best


def pack_signals(
    signals: SignalSet,
    params: SegmentGeometry,
) -> PackingResult:
    """Pack a signal set into schedulable messages.

    Args:
        signals: The workload.
        params: Cluster configuration (slot capacity, cycle length).

    Returns:
        A :class:`PackingResult`.

    Raises:
        ValueError: If an aperiodic signal exceeds the protocol payload
            maximum, or if the static slot capacity is zero.
    """
    capacity = params.static_slot_capacity_bits
    if capacity <= 0:
        raise ValueError(
            "static slot capacity is zero -- slots are too short for any "
            "payload at this bit rate"
        )
    cycle_ms = params.cycle_ms
    messages: List[PackedMessage] = []

    # ------------------------------------------------------------------
    # Periodic signals: merge + split + group-expand.
    # ------------------------------------------------------------------
    periodic = signals.periodic().signals
    partitions: Dict[Tuple[int, float], List[Signal]] = {}
    oversized: List[Signal] = []
    for signal in periodic:
        if signal.size_bits > capacity:
            oversized.append(signal)
        else:
            partitions.setdefault((signal.ecu, signal.period_ms), []).append(signal)

    packed_frames: List[Tuple[str, int, int, float, float, float, Tuple[str, ...], List[int]]] = []
    # Each entry: (message_id, ecu, __, period, offset, deadline, members, chunk_sizes)

    for (ecu, period_ms), members in sorted(partitions.items()):
        for index, group in enumerate(_bin_pack_signals(members, capacity)):
            payload = sum(s.size_bits for s in group)
            offset = max(s.offset_ms for s in group)
            deadline = min(s.deadline_ms for s in group)
            if len(group) == 1:
                message_id = group[0].name
            else:
                message_id = f"pack:E{ecu}:P{period_ms:g}:{index}"
            packed_frames.append((
                message_id, ecu, payload, period_ms, offset, deadline,
                tuple(s.name for s in group), [payload],
            ))

    for signal in oversized:
        chunk_sizes = _split_into_chunks(signal.size_bits, capacity)
        packed_frames.append((
            signal.name, signal.ecu, signal.size_bits, signal.period_ms,
            signal.offset_ms, signal.deadline_ms, (signal.name,),
            chunk_sizes,
        ))

    for (message_id, ecu, __, period_ms, offset_ms, deadline_ms,
         member_names, chunk_sizes) in packed_frames:
        group_count = max(1, math.ceil(cycle_ms / period_ms - 1e-9)) \
            if period_ms < cycle_ms else 1
        group_period = period_ms * group_count
        repetition = _select_repetition(group_period, deadline_ms, cycle_ms)
        # The slot allocator may shift the base cycle to share slots, at
        # one cycle of worst-case latency per shifted cycle; bound the
        # shift by what the deadline can absorb.
        flexibility = min(
            repetition - 1,
            max(0, int(deadline_ms / cycle_ms) - 1),
        )
        for group in range(group_count):
            group_offset = offset_ms + group * period_ms
            group_id = message_id if group_count == 1 \
                else f"{message_id}@g{group}"
            base_cycle = int(group_offset // cycle_ms) % repetition
            phase_mt = params.ms_to_mt(group_offset % cycle_ms)
            chunks = tuple(
                Frame(
                    frame_id=1,  # bound to a slot by the schedule builder
                    message_id=group_id,
                    payload_bits=size,
                    producer_ecu=ecu,
                    base_cycle=base_cycle,
                    cycle_repetition=repetition,
                    kind=FrameKind.STATIC,
                    chunk=chunk_index,
                    chunk_count=len(chunk_sizes),
                    preferred_phase_mt=phase_mt,
                    base_flexibility=flexibility,
                    overhead_bits=params.frame_overhead_bits,
                )
                for chunk_index, size in enumerate(chunk_sizes)
            )
            messages.append(PackedMessage(
                message_id=group_id,
                chunks=chunks,
                period_ms=group_period,
                offset_ms=group_offset,
                deadline_ms=deadline_ms,
                priority=_message_priority(deadline_ms),
                aperiodic=False,
                member_signals=member_names,
            ))

    # ------------------------------------------------------------------
    # Aperiodic signals: one message each (dynamic frames are already
    # variable-length, so merging buys nothing and costs latency).
    # ------------------------------------------------------------------
    for signal in signals.aperiodic().signals:
        if signal.size_bits > params.max_payload_bits:
            raise ValueError(
                f"aperiodic signal {signal.name} "
                f"({signal.size_bits} bits) exceeds the protocol "
                f"payload maximum {params.max_payload_bits}"
            )
        interarrival = signal.min_interarrival_ms or signal.period_ms
        chunk = Frame(
            frame_id=params.first_dynamic_slot_id,  # final ID set later
            message_id=signal.name,
            payload_bits=signal.size_bits,
            producer_ecu=signal.ecu,
            kind=FrameKind.DYNAMIC,
            overhead_bits=params.frame_overhead_bits,
        )
        messages.append(PackedMessage(
            message_id=signal.name,
            chunks=(chunk,),
            period_ms=interarrival,
            offset_ms=signal.offset_ms,
            deadline_ms=signal.deadline_ms,
            priority=signal.effective_priority,
            aperiodic=True,
            member_signals=(signal.name,),
        ))

    return PackingResult(messages=messages, params=params)


def derive_params_for(
    signals: SignalSet,
    cycle_ms: float = 5.0,
    minislots: int = 100,
    macrotick_us: float = 1.0,
    channel_count: int = 2,
    slot_headroom: float = 1.0,
    template: Optional[SegmentGeometry] = None,
) -> SegmentGeometry:
    """Derive a feasible parameter set for a workload.

    The paper's published gdStaticSlot (40 MT) cannot physically carry
    its own case-study message sizes at FlexRay's 10 Mbit/s, so the
    case-study experiments derive the slot length from the workload: the
    slot is sized to the largest *packed* frame, and the static-slot
    count to what the packed frames demand (plus the requested dynamic
    segment).  DESIGN.md documents this substitution.

    Args:
        signals: The workload the parameters must carry.
        cycle_ms: Communication-cycle length.
        minislots: Dynamic-segment length in minislots.
        macrotick_us: Macrotick length.
        channel_count: 1 or 2.
        slot_headroom: Multiplier (>= 1) on the required static slot
            count, leaving idle slots -- the slack CoEfficient exploits.
        template: Backend geometry the derivation specializes: supplies
            the bit rate, frame overhead, payload cap and minislot
            length, and fixes the *type* of the returned parameter set
            (via :func:`dataclasses.replace`).  Defaults to the FlexRay
            backend's template, preserving the pre-refactor behaviour.

    Returns:
        A validated parameter set of the template's type.

    Raises:
        ValueError: If the workload cannot fit the cycle at all.
    """
    if slot_headroom < 1.0:
        raise ValueError(f"slot_headroom must be >= 1, got {slot_headroom}")
    if template is None:
        from repro.protocol.backend import get_backend
        template = get_backend("flexray").geometry_template()
    bits_per_mt = template.bit_rate_mbps * macrotick_us
    overhead = template.frame_overhead_bits
    minislot_mt = template.gd_minislot_mt
    cycle_mt = int(cycle_ms * 1000 / macrotick_us)

    def _probe(slot_mt: int, slots: int,
               probe_minislots: int) -> SegmentGeometry:
        return dataclasses.replace(
            template,
            gd_macrotick_us=macrotick_us,
            gd_cycle_mt=cycle_mt,
            gd_static_slot_mt=slot_mt,
            g_number_of_static_slots=slots,
            gd_minislot_mt=minislot_mt,
            g_number_of_minislots=probe_minislots,
            p_latest_tx_minislot=0,
            channel_count=channel_count,
        )

    # Iterate: slot size determines packing, packing determines slot size.
    # Start from the largest single signal, converge in a few rounds.
    periodic_sizes = [s.size_bits for s in signals.periodic().signals]
    if not periodic_sizes:
        periodic_sizes = [64]
    largest = min(max(periodic_sizes), template.max_payload_bits)
    slot_mt = int(math.ceil((largest + overhead) / bits_per_mt)) + 2

    for __ in range(4):
        packing = pack_signals(signals, _probe(slot_mt, 2, 0))
        frames = packing.static_frames()
        if not frames:
            break
        required = max(f.payload_bits for f in frames) + overhead
        new_slot_mt = int(math.ceil(required / bits_per_mt)) + 2
        if new_slot_mt == slot_mt:
            break
        slot_mt = new_slot_mt

    # Demand: slots per cycle per channel, accounting for repetition
    # sharing.  Each frame with repetition r claims 1/r of a slot.
    packing = pack_signals(signals, _probe(slot_mt, 2, 0))
    demand = sum(1.0 / f.cycle_repetition for f in packing.static_frames())
    slots_needed = max(2, math.ceil(demand * slot_headroom / channel_count))

    dynamic_mt = minislots * minislot_mt
    static_mt = slots_needed * slot_mt
    if static_mt + dynamic_mt > cycle_mt:
        raise ValueError(
            f"workload needs {static_mt} MT static + {dynamic_mt} MT "
            f"dynamic but the cycle is only {cycle_mt} MT; use a longer "
            f"cycle or fewer minislots"
        )
    return _probe(slot_mt, slots_needed, minislots)

"""Round compiler: schedule table -> flat integer timeline arrays.

A static schedule repeats every ``pattern_length`` cycles, the LCM of
its frames' cycle repetitions, so it can be compiled once instead of
re-derived slot by slot at runtime (the hypercycle view of Wang et al.,
arXiv:2506.11745: the repeating unit is the pattern, not the 64-cycle
FlexRay matrix).  The compiler walks one pattern of a
:class:`~repro.protocol.schedule.ScheduleTable` and emits a
:class:`CompiledRound`: parallel tuples of

    (start, end, action, slot id, channel, owner node, frame id, kind)

in integer macroticks -- one entry per *owned* (channel, cycle, slot)
static transmission window plus one entry per cycle for the dynamic
segment, symbol window and NIT -- together with the derived per-cycle
tables the rest of the system reads:

- per-cycle static steps in execution order (the stepper's walk list);
- O(1) slot-owner lookup (replaces repeated ``ScheduleTable.lookup``);
- per-(channel, cycle) structural idle slots with prefix sums (the
  slack supply the selective-slack planner and the admission service
  measure demand against).

The arrays are the authoritative representation: every derived view is
computed from them, so the verifier's round checks
(:mod:`repro.verify.round_checks`) can corrupt the arrays and watch the
inconsistency surface.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.protocol.channel import Channel
from repro.protocol.frame import Frame
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.schedule import ScheduleTable
from repro.obs import NULL_OBS, ObsLike

__all__ = ["CompiledRound", "StaticStep", "RoundEntry", "compile_round",
           "SEGMENT_STATIC", "SEGMENT_DYNAMIC", "SEGMENT_SYMBOL",
           "SEGMENT_NIT"]

#: Segment-kind codes used in the flat arrays.
SEGMENT_STATIC = 0
SEGMENT_DYNAMIC = 1
SEGMENT_SYMBOL = 2
SEGMENT_NIT = 3

#: Channel <-> integer code mapping used in the flat arrays.
CHANNEL_CODES: Dict[Channel, int] = {Channel.A: 0, Channel.B: 1}
_CHANNEL_BY_CODE: Dict[int, Channel] = {
    code: channel for channel, code in CHANNEL_CODES.items()
}


class StaticStep(NamedTuple):
    """One executable static-slot step of a compiled cycle.

    ``entries`` lists the owned ``(channel, frame)`` pairs of the slot in
    channel order (A before B) -- the order the interpreter queries them.
    """

    slot_id: int
    action_offset_mt: int  # within-cycle offset of the action point
    entries: Tuple[Tuple[Channel, Optional[Frame]], ...]


class RoundEntry(NamedTuple):
    """One decoded row of the flat arrays (verification view)."""

    start_mt: int
    end_mt: int
    action_mt: int
    slot_id: int
    channel_code: int
    owner_node: int
    frame_id: int
    segment_kind: int
    frame: Optional[Frame]


class CompiledRound:
    """Immutable compiled form of one repetition pattern of a schedule.

    All array arguments are parallel sequences with one element per
    timeline entry; they are copied into tuples so the round cannot be
    mutated after construction.  Static entries carry the slot window in
    ``start/end`` and the transmission start in ``action``; the dynamic
    segment, symbol window and NIT appear once per cycle with
    ``slot_id = 0``, ``channel_code = -1`` and ``frame_id = -1``.

    The rows span cycles ``[0, pattern_length)`` and every query reduces
    its cycle modulo ``pattern_length``.  That is exact because each
    frame's cycle repetition divides the pattern.

    Args:
        params: Cluster configuration the round was compiled against.
        channels: Channels included (defines slack-table scope).
        pattern_length: Cycles after which the static pattern repeats
            (the round's only period).
        starts, ends, actions, slot_ids, channel_codes, owner_nodes,
            frame_ids, segment_kinds: The flat arrays.
        frames: Per-entry :class:`Frame` references (``None`` for
            non-static entries, or entirely when verifying a round built
            from raw arrays).
        idle_slots_override: Pre-computed per-channel idle tables,
            ``{channel: [tuple_of_slot_ids, ...]}`` indexed by cycle in
            pattern.  Normally ``None`` (idle tables are derived from
            the owner arrays); the model checker's MDL403 rule exists
            to catch an externally supplied table that disagrees.
    """

    def __init__(
        self,
        params: SegmentGeometry,
        channels: Sequence[Channel],
        pattern_length: int,
        starts: Sequence[int],
        ends: Sequence[int],
        actions: Sequence[int],
        slot_ids: Sequence[int],
        channel_codes: Sequence[int],
        owner_nodes: Sequence[int],
        frame_ids: Sequence[int],
        segment_kinds: Sequence[int],
        frames: Optional[Sequence[Optional[Frame]]] = None,
        idle_slots_override: Optional[
            Dict[Channel, List[Tuple[int, ...]]]] = None,
    ) -> None:
        if pattern_length <= 0:
            raise ValueError(
                f"pattern_length must be > 0, got {pattern_length}")
        lengths = {len(starts), len(ends), len(actions), len(slot_ids),
                   len(channel_codes), len(owner_nodes), len(frame_ids),
                   len(segment_kinds)}
        if len(lengths) != 1:
            raise ValueError(f"parallel arrays disagree in length: {lengths}")
        self.params = params
        self._channels = tuple(channels)
        self._pattern_length = pattern_length
        self.starts = tuple(int(v) for v in starts)
        self.ends = tuple(int(v) for v in ends)
        self.actions = tuple(int(v) for v in actions)
        self.slot_ids = tuple(int(v) for v in slot_ids)
        self.channel_codes = tuple(int(v) for v in channel_codes)
        self.owner_nodes = tuple(int(v) for v in owner_nodes)
        self.frame_ids = tuple(int(v) for v in frame_ids)
        self.segment_kinds = tuple(int(v) for v in segment_kinds)
        if frames is None:
            self.frames: Tuple[Optional[Frame], ...] = (None,) * len(self.starts)
        else:
            if len(frames) != len(self.starts):
                raise ValueError("frames length disagrees with the arrays")
            self.frames = tuple(frames)
        self._build_owner_maps()
        self._build_static_steps()
        self._build_idle_tables(idle_slots_override)

    # ------------------------------------------------------------------
    # Derived views (computed once from the flat arrays)
    # ------------------------------------------------------------------

    def _build_owner_maps(self) -> None:
        cycle_mt = self.params.gd_cycle_mt
        # owner[channel_code][cycle] -> {slot_id: (frame, owner_node)}
        owners: List[List[Dict[int, Tuple[Optional[Frame], int]]]] = [
            [dict() for __ in range(self._pattern_length)] for __ in range(2)
        ]
        for i, kind in enumerate(self.segment_kinds):
            if kind != SEGMENT_STATIC:
                continue
            code = self.channel_codes[i]
            if code not in (0, 1):
                continue
            cycle = self.starts[i] // cycle_mt
            if not 0 <= cycle < self._pattern_length:
                continue
            owners[code][cycle][self.slot_ids[i]] = (
                self.frames[i], self.owner_nodes[i]
            )
        self._owners = owners

    def _build_static_steps(self) -> None:
        steps: List[Tuple[StaticStep, ...]] = []
        for cycle in range(self._pattern_length):
            per_slot: Dict[int, List[Tuple[Channel, Optional[Frame]]]] = {}
            for code in (0, 1):
                for slot_id, (frame, __) in self._owners[code][cycle].items():
                    per_slot.setdefault(slot_id, []).append(
                        (_CHANNEL_BY_CODE[code], frame)
                    )
            cycle_steps: List[StaticStep] = []
            for slot_id in sorted(per_slot):
                entries = tuple(sorted(
                    per_slot[slot_id], key=lambda pair: pair[0].value
                ))
                action = ((slot_id - 1) * self.params.gd_static_slot_mt
                          + self.params.gd_action_point_offset_mt)
                cycle_steps.append(StaticStep(
                    slot_id=slot_id, action_offset_mt=action,
                    entries=entries,
                ))
            steps.append(tuple(cycle_steps))
        self._static_steps = tuple(steps)

    def _build_idle_tables(
        self,
        override: Optional[Dict[Channel, List[Tuple[int, ...]]]],
    ) -> None:
        total_slots = self.params.g_number_of_static_slots
        slot_mt = self.params.gd_static_slot_mt
        idle: Dict[Channel, List[Tuple[int, ...]]] = {}
        for channel in self._channels:
            code = CHANNEL_CODES.get(channel)
            per_cycle: List[Tuple[int, ...]] = []
            for cycle in range(self._pattern_length):
                if override is not None and channel in override:
                    per_cycle.append(tuple(override[channel][cycle]))
                    continue
                owned = (self._owners[code][cycle]
                         if code is not None else {})
                per_cycle.append(tuple(
                    slot_id for slot_id in range(1, total_slots + 1)
                    if slot_id not in owned
                ))
            idle[channel] = per_cycle
        self._idle = idle
        self._idle_per_cycle_total = [
            sum(len(idle[channel][cycle]) for channel in self._channels)
            for cycle in range(self._pattern_length)
        ]
        # Prefix sums over the pattern: _idle_prefix[k] = idle slots in
        # pattern cycles [0, k), so any cycle window is O(1).
        prefix = [0]
        for cycle_total in self._idle_per_cycle_total:
            prefix.append(prefix[-1] + cycle_total)
        self._idle_prefix = tuple(prefix)
        self._idle_windows: Dict[Channel, List[Tuple[Tuple[int, int], ...]]] = {
            channel: [
                tuple(((slot_id - 1) * slot_mt, slot_id * slot_mt)
                      for slot_id in idle[channel][cycle])
                for cycle in range(self._pattern_length)
            ]
            for channel in self._channels
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """Channels the round was compiled for."""
        return self._channels

    @property
    def pattern_length(self) -> int:
        """Cycles after which the static pattern repeats."""
        return self._pattern_length

    def entries(self) -> Iterator[RoundEntry]:
        """Decode the flat arrays row by row (verification view)."""
        for i in range(len(self.starts)):
            yield RoundEntry(
                start_mt=self.starts[i], end_mt=self.ends[i],
                action_mt=self.actions[i], slot_id=self.slot_ids[i],
                channel_code=self.channel_codes[i],
                owner_node=self.owner_nodes[i],
                frame_id=self.frame_ids[i],
                segment_kind=self.segment_kinds[i],
                frame=self.frames[i],
            )

    # ------------------------------------------------------------------
    # Static-segment queries (the interpreter/stepper contract)
    # ------------------------------------------------------------------

    def static_steps(self, cycle: int) -> Tuple[StaticStep, ...]:
        """Owned static-slot steps of ``cycle``, in execution order."""
        return self._static_steps[cycle % self._pattern_length]

    def owner(self, channel: Channel, cycle: int,
              slot_id: int) -> Optional[Frame]:
        """Frame owning (channel, cycle, slot), or ``None`` (idle).

        Semantically identical to ``ScheduleTable.lookup`` on the source
        schedule: every cycle repetition divides the pattern, so
        reducing the cycle modulo the pattern preserves every
        ``sends_in_cycle`` decision.
        """
        code = CHANNEL_CODES.get(channel)
        if code is None:
            return None
        entry = self._owners[code][cycle % self._pattern_length].get(slot_id)
        return entry[0] if entry is not None else None

    def owner_node(self, channel: Channel, cycle: int, slot_id: int) -> int:
        """Producer ECU of the owning frame, or ``-1`` (idle)."""
        code = CHANNEL_CODES.get(channel)
        if code is None:
            return -1
        entry = self._owners[code][cycle % self._pattern_length].get(slot_id)
        return entry[1] if entry is not None else -1

    def owned_slots(self, channel: Channel, cycle: int) -> Tuple[int, ...]:
        """Slot IDs with an owner in (channel, cycle), ascending."""
        code = CHANNEL_CODES.get(channel)
        if code is None:
            return ()
        return tuple(sorted(self._owners[code][cycle % self._pattern_length]))

    # ------------------------------------------------------------------
    # Slack-interval queries (the analysis contract)
    # ------------------------------------------------------------------

    def idle_slots(self, channel: Channel, cycle: int) -> Tuple[int, ...]:
        """Structurally idle slot IDs of (channel, cycle)."""
        per_cycle = self._idle.get(channel)
        if per_cycle is None:
            return ()
        return per_cycle[cycle % self._pattern_length]

    def idle_count(self, channel: Channel, cycle: int) -> int:
        """Number of structurally idle slots of (channel, cycle)."""
        return len(self.idle_slots(channel, cycle))

    def idle_slot_windows(self, channel: Channel,
                          cycle: int) -> Tuple[Tuple[int, int], ...]:
        """Within-cycle ``(start, end)`` windows of the idle slots."""
        per_cycle = self._idle_windows.get(channel)
        if per_cycle is None:
            return ()
        return per_cycle[cycle % self._pattern_length]

    def idle_slots_between(self, start_cycle: int, end_cycle: int) -> int:
        """Total idle slots over cycles ``[start, end)``, all channels."""
        if end_cycle < start_cycle:
            raise ValueError(
                f"empty cycle range [{start_cycle}, {end_cycle})"
            )
        pattern = self._pattern_length
        full_patterns, remainder = divmod(end_cycle - start_cycle, pattern)
        total = full_patterns * self._idle_prefix[pattern]
        base = start_cycle % pattern
        if base + remainder <= pattern:
            total += self._idle_prefix[base + remainder] - self._idle_prefix[base]
        else:
            total += self._idle_prefix[pattern] - self._idle_prefix[base]
            total += self._idle_prefix[base + remainder - pattern]
        return total

    def structural_utilization(self) -> float:
        """Fraction of static (slot, cycle, channel) capacity in use."""
        capacity = (self.params.g_number_of_static_slots
                    * self._pattern_length * len(self._channels))
        idle = self._idle_prefix[self._pattern_length]
        return 1.0 - idle / capacity if capacity else 0.0


def _pattern_length_of(table: ScheduleTable) -> int:
    """LCM of all repetitions = the schedule's cycle pattern length."""
    length = 1
    for channel in (Channel.A, Channel.B):
        for assignment in table.assignments(channel):
            repetition = assignment.frame.cycle_repetition
            length = length * repetition // math.gcd(length, repetition)
    return length


def compile_round(table: ScheduleTable, params: SegmentGeometry,
                  channels: Sequence[Channel],
                  obs: ObsLike = NULL_OBS) -> CompiledRound:
    """Compile one repetition pattern of a schedule table.

    Args:
        table: The static schedule (must belong to ``params``).
        params: Cluster configuration.
        channels: Channels to include in the slack tables (the flat
            arrays always carry every assignment of both channels).
        obs: Observability context; compilation is timed under the
            ``timeline.compile`` profiler span.

    Returns:
        An immutable :class:`CompiledRound`.
    """
    with obs.section("timeline.compile"):
        pattern = _pattern_length_of(table)
        cycle_mt = params.gd_cycle_mt
        slot_mt = params.gd_static_slot_mt
        action_offset = params.gd_action_point_offset_mt

        starts: List[int] = []
        ends: List[int] = []
        actions: List[int] = []
        slot_ids: List[int] = []
        channel_codes: List[int] = []
        owner_nodes: List[int] = []
        frame_ids: List[int] = []
        segment_kinds: List[int] = []
        frames: List[Optional[Frame]] = []

        def _emit(start: int, end: int, action: int, slot_id: int,
                  code: int, node: int, frame_id: int, kind: int,
                  frame: Optional[Frame]) -> None:
            starts.append(start)
            ends.append(end)
            actions.append(action)
            slot_ids.append(slot_id)
            channel_codes.append(code)
            owner_nodes.append(node)
            frame_ids.append(frame_id)
            segment_kinds.append(kind)
            frames.append(frame)

        assignments = {
            channel: table.assignments(channel)
            for channel in (Channel.A, Channel.B)
        }
        for cycle in range(pattern):
            cycle_start = cycle * cycle_mt
            for channel in (Channel.A, Channel.B):
                code = CHANNEL_CODES[channel]
                for assignment in assignments[channel]:
                    frame = assignment.frame
                    if not frame.sends_in_cycle(cycle):
                        continue
                    slot_start = (cycle_start
                                  + (assignment.slot_id - 1) * slot_mt)
                    _emit(
                        start=slot_start,
                        end=slot_start + slot_mt,
                        action=slot_start + action_offset,
                        slot_id=assignment.slot_id,
                        code=code,
                        node=frame.producer_ecu,
                        frame_id=frame.frame_id,
                        kind=SEGMENT_STATIC,
                        frame=frame,
                    )
            dynamic_start = cycle_start + params.static_segment_mt
            dynamic_end = dynamic_start + params.dynamic_segment_mt
            if params.dynamic_segment_mt > 0:
                _emit(dynamic_start, dynamic_end, dynamic_start, 0, -1, -1,
                      -1, SEGMENT_DYNAMIC, None)
            symbol_end = dynamic_end + params.gd_symbol_window_mt
            if params.gd_symbol_window_mt > 0:
                _emit(dynamic_end, symbol_end, dynamic_end, 0, -1, -1, -1,
                      SEGMENT_SYMBOL, None)
            nit_end = cycle_start + cycle_mt
            if nit_end > symbol_end:
                _emit(symbol_end, nit_end, symbol_end, 0, -1, -1, -1,
                      SEGMENT_NIT, None)

        compiled = CompiledRound(
            params=params, channels=channels, pattern_length=pattern, starts=starts, ends=ends,
            actions=actions, slot_ids=slot_ids, channel_codes=channel_codes,
            owner_nodes=owner_nodes, frame_ids=frame_ids,
            segment_kinds=segment_kinds, frames=frames,
        )
    if obs.enabled:
        obs.inc("timeline.rounds_compiled")
        obs.set_gauge("timeline.entries", len(compiled))
    return compiled

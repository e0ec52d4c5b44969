"""Static-segment schedule-table checks (``FRS*`` rules).

The checks re-derive every invariant from first principles instead of
trusting :class:`~repro.protocol.schedule.ScheduleTable`'s constructor
guards: the verifier's job is to catch tables that were built by other
tools, deserialized, hand-edited, or verified against a *different*
cluster configuration than they were built for (the common
mixed-up-preset mistake).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Union

from repro.protocol.channel import Channel
from repro.protocol.frame import CYCLE_REPETITIONS
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.schedule import (
    ScheduleTable,
    SlotAssignment,
    patterns_conflict,
)
from repro.verify.diagnostics import Diagnostic, Report, Severity

__all__ = ["check_schedule"]

ScheduleLike = Union[ScheduleTable, Mapping[Channel, Sequence[SlotAssignment]]]


def _assignments_by_channel(schedule: ScheduleLike) \
        -> Dict[Channel, List[SlotAssignment]]:
    if isinstance(schedule, ScheduleTable):
        return {channel: schedule.assignments(channel)
                for channel in (Channel.A, Channel.B)}
    return {channel: list(assignments)
            for channel, assignments in schedule.items()}


def check_schedule(schedule: ScheduleLike, params: SegmentGeometry) -> Report:
    """Run every ``FRS*`` rule against a static-segment schedule.

    Args:
        schedule: A built :class:`ScheduleTable` or a raw
            ``channel -> assignments`` mapping (deserialized tables).
        params: The cluster configuration the table must satisfy.

    Returns:
        A :class:`Report`; empty when the table is sound.
    """
    report = Report()
    per_channel = _assignments_by_channel(schedule)
    total_slots = params.g_number_of_static_slots
    capacity = params.static_slot_capacity_bits

    for channel in sorted(per_channel, key=lambda c: c.name):
        assignments = per_channel[channel]
        if not assignments:
            continue

        # FRS104: the channel must exist in this configuration.
        if channel is Channel.B and params.channel_count < 2:
            report.add(Diagnostic(
                rule_id="FRS104", severity=Severity.ERROR,
                location=f"schedule.{channel.name}",
                message=f"{len(assignments)} assignment(s) on channel B but "
                        f"the cluster is configured single-channel",
                fix_hint="set channel_count=2 or move the frames to "
                         "channel A",
            ))

        by_slot: Dict[int, List[SlotAssignment]] = {}
        for assignment in assignments:
            slot_id = assignment.slot_id
            frame = assignment.frame
            where = (f"schedule.{channel.name}.slot {slot_id} "
                     f"({frame.message_id})")

            # FRS101: slot id inside the static segment.
            if not 1 <= slot_id <= total_slots:
                report.add(Diagnostic(
                    rule_id="FRS101", severity=Severity.ERROR,
                    location=where,
                    message=f"slot {slot_id} outside the static segment "
                            f"[1, {total_slots}]",
                    fix_hint="re-run the allocator against this "
                             "configuration's slot count",
                ))

            # FRS105: the bound frame id must match its slot.
            if frame.frame_id != slot_id:
                report.add(Diagnostic(
                    rule_id="FRS105", severity=Severity.ERROR,
                    location=where,
                    message=f"frame_id {frame.frame_id} does not match the "
                            f"assigned slot {slot_id}",
                    fix_hint="bind frames with frame_id = slot_id "
                             "(dataclasses.replace on placement)",
                ))

            # FRS106: cycle-multiplexing pattern validity.
            repetition = frame.cycle_repetition
            if repetition not in CYCLE_REPETITIONS \
                    or not 0 <= frame.base_cycle < repetition:
                report.add(Diagnostic(
                    rule_id="FRS106", severity=Severity.ERROR,
                    location=where,
                    message=f"cycle pattern base={frame.base_cycle} "
                            f"rep={repetition} invalid (rep must be a power "
                            f"of two <= 64, base in [0, rep))",
                    fix_hint="use repetition_for_period() and reduce the "
                             "base modulo the repetition",
                ))

            # FRS103: payload must fit the slot.
            if frame.payload_bits > capacity:
                report.add(Diagnostic(
                    rule_id="FRS103", severity=Severity.ERROR,
                    location=where,
                    message=f"payload of {frame.payload_bits} bits exceeds "
                            f"the slot capacity of {capacity} bits",
                    fix_hint="let the packer chunk the message or lengthen "
                             "gdStaticSlot",
                ))

            by_slot.setdefault(slot_id, []).append(assignment)

        # FRS102: slot sharing must never collide.  Re-derived with
        # patterns_conflict over every pair, independent of whatever
        # built the table.
        for slot_id in sorted(by_slot):
            sharers = by_slot[slot_id]
            for i, first in enumerate(sharers):
                for second in sharers[i + 1:]:
                    if patterns_conflict(
                        first.frame.base_cycle, first.frame.cycle_repetition,
                        second.frame.base_cycle, second.frame.cycle_repetition,
                    ):
                        report.add(Diagnostic(
                            rule_id="FRS102", severity=Severity.ERROR,
                            location=f"schedule.{channel.name}.slot {slot_id}",
                            message=f"{first.frame.message_id} "
                                    f"(base={first.frame.base_cycle}, "
                                    f"rep={first.frame.cycle_repetition}) and "
                                    f"{second.frame.message_id} "
                                    f"(base={second.frame.base_cycle}, "
                                    f"rep={second.frame.cycle_repetition}) "
                                    f"transmit in the same cycles",
                            fix_hint="shift one frame's base cycle or give "
                                     "it its own slot",
                        ))
    return report

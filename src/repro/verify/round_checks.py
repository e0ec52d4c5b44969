"""Compiled-round checks (``FRS11x`` rules).

A :class:`~repro.timeline.compiler.CompiledRound` is the executable
form of a schedule: the engines walk its flat arrays instead of
querying the table, and the analysis layers read its slack tables.  A
compiler bug (or a round deserialized/hand-built from raw arrays) would
therefore corrupt *execution*, not just a report.  The hyperperiod
model checker (:mod:`repro.check.model_checker`, ``MDL401``-``MDL403``)
proves the arrays' window geometry, owner maps and slack tables; the
two rules here check what it does not look at:

- **FRS110** -- the round must agree with its source schedule: every
  ``ScheduleTable.lookup`` answer over all 64 values of the cycle
  counter is reproduced by ``CompiledRound.owner`` (full static
  coverage, no phantom owners).  The round spans one pattern and
  ``owner()`` wraps modulo ``pattern_length``, so this sweep is also
  the periodicity check: a pattern that is too short is reported here.
- **FRS113** -- the static-step view must re-derive from the flat
  arrays: this is the batch geometry the engines execute, so a step
  out of slot order, a wrong action offset, entries out of channel
  order, a phantom entry or a missing owned slot would silently change
  what transmits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.protocol.channel import Channel
from repro.protocol.frame import CYCLE_REPETITIONS
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.schedule import ScheduleTable
from repro.timeline.compiler import CHANNEL_CODES, SEGMENT_STATIC, CompiledRound
from repro.verify.diagnostics import (
    Diagnostic,
    DiagnosticBudget,
    Report,
    Severity,
)

__all__ = ["check_compiled_round"]


def check_compiled_round(compiled: CompiledRound,
                         table: Optional[ScheduleTable] = None) -> Report:
    """Run ``FRS110`` and ``FRS113`` against a compiled round.

    Args:
        compiled: The round to verify.
        table: The source schedule; when given, FRS110 cross-checks the
            round's owner view against ``table.lookup`` over every
            cycle-counter value (omit for rounds rebuilt from raw arrays
            with no surviving table).

    Returns:
        A :class:`Report`; empty when the round is sound.
    """
    report = Report()
    budget = DiagnosticBudget(report)
    params = compiled.params
    _check_owner_agreement(compiled, table, params, budget)
    _check_static_steps(compiled, params, budget)
    budget.close()
    return report


def _check_owner_agreement(compiled: CompiledRound,
                           table: Optional[ScheduleTable],
                           params: SegmentGeometry, budget: DiagnosticBudget) -> None:
    """FRS110: round owners == schedule lookups, both directions."""
    if table is None:
        return
    total_slots = params.g_number_of_static_slots
    # Every repetition divides the largest, so the cycle counter's 64
    # values cover every frame's firing pattern.
    for channel in (Channel.A, Channel.B):
        for cycle in range(max(CYCLE_REPETITIONS)):
            for slot_id in range(1, total_slots + 1):
                expected = table.lookup(channel, cycle, slot_id)
                actual = compiled.owner(channel, cycle, slot_id)
                if expected is actual:
                    continue
                if expected is not None and actual is not None \
                        and expected.frame_id == actual.frame_id \
                        and expected.message_id == actual.message_id:
                    continue
                def describe(f):
                    return ("idle" if f is None
                            else f"{f.message_id} (id {f.frame_id})")

                budget.add(Diagnostic(
                    rule_id="FRS110", severity=Severity.ERROR,
                    location=f"round.{channel.name}.cycle {cycle}"
                             f".slot {slot_id}",
                    message=f"compiled owner {describe(actual)} disagrees "
                            f"with schedule lookup {describe(expected)}",
                    fix_hint="recompile the round from this schedule "
                             "(compile_round); do not edit the arrays",
                ))


def _check_static_steps(compiled: CompiledRound, params: SegmentGeometry,
                        budget: DiagnosticBudget) -> None:
    """FRS113: the static-step batch view re-derives from the flat arrays.

    ``static_steps(cycle)`` is the geometry both engines execute -- the
    stepper walks it slot by slot and the vectorized engine plans whole
    cycle batches over it -- so it is re-derived here from the flat
    arrays alone (not through ``owner()``, which has its own cache).
    """
    cycle_mt = params.gd_cycle_mt
    slot_mt = params.gd_static_slot_mt
    offset = params.gd_action_point_offset_mt
    fix = ("recompile the round (compile_round); the step view diverged "
           "from the flat arrays")
    # (channel code, slot_id) -> frame_id, per cycle, from the raw rows.
    expected: List[Dict[Tuple[int, int], int]] = [
        dict() for __ in range(compiled.pattern_length)
    ]
    for i, kind in enumerate(compiled.segment_kinds):
        if kind != SEGMENT_STATIC:
            continue
        code = compiled.channel_codes[i]
        if code not in (0, 1):
            continue
        cycle = compiled.starts[i] // cycle_mt
        if 0 <= cycle < compiled.pattern_length:
            expected[cycle][(code, compiled.slot_ids[i])] = \
                compiled.frame_ids[i]
    for cycle in range(compiled.pattern_length):
        covered: set = set()
        last_slot = 0
        for step in compiled.static_steps(cycle):
            where = f"round.steps.cycle {cycle}.slot {step.slot_id}"
            if step.slot_id <= last_slot:
                budget.add(Diagnostic(
                    rule_id="FRS113", severity=Severity.ERROR,
                    location=where,
                    message=f"step for slot {step.slot_id} follows slot "
                            f"{last_slot}: steps must be strictly "
                            f"slot-ascending (the engines execute them "
                            f"in time order)",
                    fix_hint=fix,
                ))
            last_slot = max(last_slot, step.slot_id)
            expected_action = (step.slot_id - 1) * slot_mt + offset
            if step.action_offset_mt != expected_action:
                budget.add(Diagnostic(
                    rule_id="FRS113", severity=Severity.ERROR,
                    location=where,
                    message=f"step action offset {step.action_offset_mt} "
                            f"is not the slot-{step.slot_id} action point "
                            f"{expected_action}",
                    fix_hint=fix,
                ))
            codes = [CHANNEL_CODES[channel] for channel, __ in step.entries]
            if codes != sorted(set(codes)):
                budget.add(Diagnostic(
                    rule_id="FRS113", severity=Severity.ERROR,
                    location=where,
                    message=f"step entries are not in strict channel order "
                            f"(codes {codes}); the engines query channel A "
                            f"before channel B within a slot",
                    fix_hint=fix,
                ))
            for channel, frame in step.entries:
                key = (CHANNEL_CODES[channel], step.slot_id)
                frame_id = expected[cycle].get(key)
                if frame_id is None:
                    budget.add(Diagnostic(
                        rule_id="FRS113", severity=Severity.ERROR,
                        location=where,
                        message=f"phantom step entry on channel "
                                f"{channel.name}: the flat arrays have no "
                                f"static row for this (channel, cycle, "
                                f"slot)",
                        fix_hint=fix,
                    ))
                    continue
                covered.add(key)
                if frame is not None and frame_id >= 0 \
                        and frame.frame_id != frame_id:
                    budget.add(Diagnostic(
                        rule_id="FRS113", severity=Severity.ERROR,
                        location=where,
                        message=f"step entry frame id {frame.frame_id} "
                                f"disagrees with the flat arrays' "
                                f"frame id {frame_id}",
                        fix_hint=fix,
                    ))
        for code, slot_id in sorted(set(expected[cycle]) - covered):
            channel_name = "A" if code == 0 else "B"
            budget.add(Diagnostic(
                rule_id="FRS113", severity=Severity.ERROR,
                location=f"round.steps.cycle {cycle}.slot {slot_id}",
                message=f"owned static entry on channel {channel_name} is "
                        f"missing from the step view: the engines would "
                        f"never transmit it",
                fix_hint=fix,
            ))

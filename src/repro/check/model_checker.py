"""Symbolic hyperperiod model checker over ``CompiledRound`` (``MDL4xx``).

This module proves a compiled round's array invariants over the
**hyperperiod** -- the round's ``pattern_length`` cycles, the schedule's
only period -- by pure interval arithmetic on the flat integer arrays;
no cycle is ever simulated:

- **MDL401** -- window geometry: every row lies inside the round
  ``[0, pattern_length)`` cycles; every static row sits exactly on its
  (cycle, slot) grid position with a one-slot extent and an in-window
  action point; per channel, no two windows overlap; and in every
  cycle the non-static rows (dynamic segment, symbol window, NIT) tile
  the remainder ``[static end, cycle end)`` contiguously, in kind
  order, with the parameterized lengths.
- **MDL402** -- owner agreement: the O(1) owner maps and the flat
  arrays tell the same story in both directions over every cycle -- no
  static row the owner view drops, no owned (channel, cycle, slot)
  without a backing row, and matching owner nodes.
- **MDL403** -- slack conservation: the idle tables equal the
  owner-complement *derived from the flat arrays* in every cycle of
  the round, and the prefix-sum window query agrees with per-cycle
  totals over single cycles, prefixes, one-pattern windows *crossing*
  the pattern boundary from every base, and every window
  ``[start, pattern_length)`` from a base the acceptance test can
  start at.
- **MDL404** -- Theorem-1 fundability: the planned budgets, clipped to
  the retransmissions the structural idle-slot supply plus the reserved
  dynamic capacity can fund in the worst-aligned period window over the
  pattern tiling just proved, still clear the reliability goal.

Whether the pattern is the schedule's true period is FRS110's
(:mod:`repro.verify.round_checks`), which compares the round with its
source table over every cycle-counter value.
Whether the unclipped plan clears it is ``ANA204``'s
(:func:`~repro.verify.analysis_checks.check_retransmission_plan`),
proved once per report: :func:`~repro.verify.verifier.verify_experiment`
runs it beside this rule, on inputs from
:func:`~repro.core.retransmission.derive_theorem1_plan`.

On violation, :mod:`repro.check.counterexample` shrinks the round to a
minimal failing row set with a one-command repro (``MDL405``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.core.retransmission import (
    goal_log_probability,
    plan_log_probability,
)
from repro.protocol.channel import Channel
from repro.timeline.compiler import (
    CHANNEL_CODES,
    SEGMENT_DYNAMIC,
    SEGMENT_NIT,
    SEGMENT_STATIC,
    SEGMENT_SYMBOL,
    CompiledRound,
)
from repro.verify.diagnostics import (
    Diagnostic,
    DiagnosticBudget,
    Report,
    Severity,
)

__all__ = ["check_hyperperiod_model", "STRUCTURAL_RULES"]

_KIND_NAMES = {
    SEGMENT_STATIC: "static",
    SEGMENT_DYNAMIC: "dynamic",
    SEGMENT_SYMBOL: "symbol",
    SEGMENT_NIT: "NIT",
}

#: The structural rules (no reliability inputs needed).
STRUCTURAL_RULES = ("MDL401", "MDL402", "MDL403")


def check_hyperperiod_model(
    compiled: CompiledRound,
    *,
    budgets: Optional[Mapping[str, int]] = None,
    failure_probabilities: Optional[Mapping[str, float]] = None,
    instances: Optional[Mapping[str, float]] = None,
    reliability_goal: Optional[float] = None,
    retransmission_periods_ms: Optional[Mapping[str, float]] = None,
    dynamic_retransmission_slots_per_cycle: Union[
        int, Mapping[str, int]] = 0,
) -> Report:
    """Run every ``MDL4xx`` rule against a compiled round.

    Args:
        compiled: The round to model-check.
        budgets: ``message -> k_z`` retransmission budgets (the plan).
        failure_probabilities: ``message -> p_z`` per-transmission
            failure probabilities.
        instances: ``message -> u / T_z`` instance rates (the ANA204
            exponents).
        reliability_goal: Theorem-1 goal ``rho`` in (0, 1].
        retransmission_periods_ms: ``message -> T_z`` periods for the
            hyperperiod demand bound; messages missing here are skipped
            in the demand sum (their retransmissions are not
            slack-funded).
        dynamic_retransmission_slots_per_cycle: Reserved dynamic-segment
            retransmission capacity per cycle, added to the idle-slot
            supply -- a single int, or a ``message -> slots`` mapping
            when frame sizes differ (how many of *that message's*
            retransmission frames fit one dynamic segment).

    The ``MDL404`` check runs only when ``budgets``,
    ``failure_probabilities``, ``instances``, ``reliability_goal`` and
    ``retransmission_periods_ms`` are all given; the structural rules
    always run.

    Returns:
        A :class:`Report`; empty when the hyperperiod model is sound.
    """
    report = Report()
    budget = DiagnosticBudget(report)
    _check_window_geometry(compiled, budget)
    _check_owner_agreement(compiled, budget)
    _check_slack_conservation(compiled, budget)
    if (budgets is not None and failure_probabilities is not None
            and instances is not None and reliability_goal is not None):
        _check_theorem1(compiled, budgets, failure_probabilities,
                        instances, reliability_goal,
                        retransmission_periods_ms,
                        dynamic_retransmission_slots_per_cycle, budget)
    budget.close()
    return report


# ----------------------------------------------------------------------
# MDL401 -- window geometry
# ----------------------------------------------------------------------

def _check_window_geometry(compiled: CompiledRound,
                           budget: DiagnosticBudget) -> None:
    params = compiled.params
    cycle_mt = params.gd_cycle_mt
    slot_mt = params.gd_static_slot_mt
    offset = params.gd_action_point_offset_mt
    horizon = compiled.pattern_length * cycle_mt
    total_slots = params.g_number_of_static_slots
    per_channel: Dict[int, List[Tuple[int, int, int, int]]] = {}
    non_static: List[List[Tuple[int, int, int, int]]] = [
        [] for __ in range(compiled.pattern_length)
    ]
    for i, kind in enumerate(compiled.segment_kinds):
        start = compiled.starts[i]
        end = compiled.ends[i]
        if not 0 <= start < horizon:
            budget.add(Diagnostic(
                rule_id="MDL401", severity=Severity.ERROR,
                location=f"round.entry {i}",
                message=f"{_KIND_NAMES.get(kind, kind)} row starts at "
                        f"{start}, outside the round [0, {horizon}) of "
                        f"pattern_length {compiled.pattern_length}",
                fix_hint="recompile the round; it spans exactly one "
                         "repetition pattern",
            ))
            continue
        cycle, phase = divmod(start, cycle_mt)
        if kind != SEGMENT_STATIC:
            non_static[cycle].append((start, end, i, kind))
            continue
        slot_id = compiled.slot_ids[i]
        expected_phase = (slot_id - 1) * slot_mt
        if (not 1 <= slot_id <= total_slots
                or end - start != slot_mt
                or phase != expected_phase
                or compiled.actions[i] != start + offset):
            budget.add(Diagnostic(
                rule_id="MDL401", severity=Severity.ERROR,
                location=f"round.entry {i} (slot {slot_id})",
                message=f"static window [{start}, {end}) action "
                        f"{compiled.actions[i]} is not the slot-{slot_id} "
                        f"grid window of cycle {cycle} (expected start "
                        f"{cycle * cycle_mt + expected_phase}, length "
                        f"{slot_mt}, action offset {offset}, slot in "
                        f"[1, {total_slots}])",
                fix_hint="recompile the round; the arrays were built "
                         "against different timing parameters",
            ))
            continue
        per_channel.setdefault(compiled.channel_codes[i], []).append(
            (start, end, i, slot_id))
    # Per-channel disjointness over the whole round.
    for code in sorted(per_channel):
        windows = sorted(per_channel[code])
        for (s1, e1, i1, slot1), (s2, e2, i2, slot2) in zip(windows,
                                                           windows[1:]):
            if s2 < e1:
                budget.add(Diagnostic(
                    rule_id="MDL401", severity=Severity.ERROR,
                    location=f"round.entry {i1}/{i2} "
                             f"(channel code {code})",
                    message=f"static windows overlap in the round: "
                            f"slot {slot1} [{s1}, {e1}) and slot {slot2} "
                            f"[{s2}, {e2})",
                    fix_hint="two frames compiled into the same "
                             "(channel, cycle, slot); fix the schedule "
                             "conflict",
                ))
    # Non-static rows must tile [static end, cycle end) in every cycle.
    expected_kinds: List[Tuple[int, int]] = []
    if params.dynamic_segment_mt > 0:
        expected_kinds.append((SEGMENT_DYNAMIC, params.dynamic_segment_mt))
    if params.gd_symbol_window_mt > 0:
        expected_kinds.append((SEGMENT_SYMBOL, params.gd_symbol_window_mt))
    nit_mt = (cycle_mt - params.static_segment_mt
              - params.dynamic_segment_mt - params.gd_symbol_window_mt)
    if nit_mt > 0:
        expected_kinds.append((SEGMENT_NIT, nit_mt))
    for cycle in range(compiled.pattern_length):
        rows = sorted(non_static[cycle])
        cursor = cycle * cycle_mt + params.static_segment_mt
        ok = len(rows) == len(expected_kinds)
        if ok:
            for (start, end, i, kind), (want_kind, want_len) in zip(
                    rows, expected_kinds):
                if (kind != want_kind or start != cursor
                        or end - start != want_len):
                    ok = False
                    break
                cursor = end
            ok = ok and cursor == (cycle + 1) * cycle_mt
        if not ok:
            got = [(f"{_KIND_NAMES.get(kind, kind)} [{start}, {end})")
                   for start, end, __, kind in rows]
            want = [f"{_KIND_NAMES[kind]} ({length} MT)"
                    for kind, length in expected_kinds]
            budget.add(Diagnostic(
                rule_id="MDL401", severity=Severity.ERROR,
                location=f"round.cycle {cycle}",
                message=f"non-static rows {got} do not tile the cycle "
                        f"remainder [{cycle * cycle_mt + params.static_segment_mt}, "
                        f"{(cycle + 1) * cycle_mt}) as {want}",
                fix_hint="recompile the round; a gap or overlap here "
                         "shifts every dynamic-segment transmission",
            ))


# ----------------------------------------------------------------------
# MDL402 -- owner agreement
# ----------------------------------------------------------------------

def _flat_owners(compiled: CompiledRound) -> Dict[Tuple[int, int],
                                                 Dict[int, int]]:
    """Flat-array truth for every cycle of the round:
    ``(channel code, cycle) -> {slot_id: owner_node}``."""
    cycle_mt = compiled.params.gd_cycle_mt
    flat: Dict[Tuple[int, int], Dict[int, int]] = {}
    for i, kind in enumerate(compiled.segment_kinds):
        if kind != SEGMENT_STATIC:
            continue
        code = compiled.channel_codes[i]
        if code not in (0, 1):
            continue
        cycle = compiled.starts[i] // cycle_mt
        if 0 <= cycle < compiled.pattern_length:
            flat.setdefault((code, cycle), {})[compiled.slot_ids[i]] = \
                compiled.owner_nodes[i]
    return flat


def _check_owner_agreement(compiled: CompiledRound,
                           budget: DiagnosticBudget) -> None:
    flat = _flat_owners(compiled)
    by_code = {CHANNEL_CODES[c]: c for c in (Channel.A, Channel.B)}
    for cycle in range(compiled.pattern_length):
        for code in (0, 1):
            channel = by_code[code]
            expected = flat.get((code, cycle), {})
            actual = set(compiled.owned_slots(channel, cycle))
            for slot_id in sorted(set(expected) - actual):
                budget.add(Diagnostic(
                    rule_id="MDL402", severity=Severity.ERROR,
                    location=f"round.{channel.name}.cycle {cycle}"
                             f".slot {slot_id}",
                    message="the flat arrays own this (channel, cycle, "
                            "slot) but the owner view drops it",
                    fix_hint="recompile the round; the owner maps "
                             "diverged from the arrays",
                ))
            for slot_id in sorted(actual - set(expected)):
                budget.add(Diagnostic(
                    rule_id="MDL402", severity=Severity.ERROR,
                    location=f"round.{channel.name}.cycle {cycle}"
                             f".slot {slot_id}",
                    message="the owner view owns this (channel, cycle, "
                            "slot) but no static row backs it",
                    fix_hint="recompile the round; the owner maps "
                             "diverged from the arrays",
                ))
            for slot_id in sorted(set(expected) & actual):
                node = compiled.owner_node(channel, cycle, slot_id)
                if node != expected[slot_id]:
                    budget.add(Diagnostic(
                        rule_id="MDL402", severity=Severity.ERROR,
                        location=f"round.{channel.name}.cycle {cycle}"
                                 f".slot {slot_id}",
                        message=f"owner node {node} disagrees with the "
                                f"flat arrays' {expected[slot_id]}",
                        fix_hint="recompile the round",
                    ))


# ----------------------------------------------------------------------
# MDL403 -- slack conservation
# ----------------------------------------------------------------------

def _check_slack_conservation(compiled: CompiledRound,
                              budget: DiagnosticBudget) -> None:
    total_slots = compiled.params.g_number_of_static_slots
    pattern = compiled.pattern_length
    # Owned sets straight from the flat arrays, for every cycle of the
    # round.
    owned = _flat_owners(compiled)
    per_cycle_total: List[int] = []
    for cycle in range(pattern):
        cycle_total = 0
        for channel in compiled.channels:
            code = CHANNEL_CODES.get(channel)
            taken = owned.get((code, cycle), {}) \
                if code is not None else {}
            expected = tuple(slot_id
                             for slot_id in range(1, total_slots + 1)
                             if slot_id not in taken)
            actual = compiled.idle_slots(channel, cycle)
            cycle_total += len(expected)
            if actual != expected:
                budget.add(Diagnostic(
                    rule_id="MDL403", severity=Severity.ERROR,
                    location=f"round.slack.{channel.name}.cycle {cycle}",
                    message=f"idle table says {list(actual)} but the "
                            f"flat arrays' complement in cycle {cycle} "
                            f"is {list(expected)}",
                    fix_hint="an idle-table override lies; the slack "
                             "supply the planner measures is wrong",
                ))
        per_cycle_total.append(cycle_total)
    # Window-sum conservation: single cycles, prefixes, one-pattern
    # windows crossing the pattern boundary and the suffixes
    # [start, pattern) ((0, pattern) is already a prefix) must all
    # agree with the per-cycle truth, which repeats every pattern.
    windows = [(c, c + 1) for c in range(pattern)]
    windows += [(0, c) for c in range(pattern + 1)]
    windows += [(c, c + pattern) for c in range(1, pattern)]
    windows += [(c, pattern) for c in range(1, pattern)]
    for start, end in windows:
        expected_sum = sum(per_cycle_total[cycle % pattern]
                           for cycle in range(start, end))
        actual_sum = compiled.idle_slots_between(start, end)
        if actual_sum != expected_sum:
            budget.add(Diagnostic(
                rule_id="MDL403", severity=Severity.ERROR,
                location=f"round.slack.window[{start}, {end})",
                message=f"idle_slots_between({start}, {end}) = "
                        f"{actual_sum} but the flat arrays supply "
                        f"{expected_sum} idle slots in that window",
                fix_hint="the prefix sums diverged from the arrays; "
                         "recompile the round",
            ))


# ----------------------------------------------------------------------
# MDL404 -- Theorem-1 over the hyperperiod
# ----------------------------------------------------------------------

def _check_theorem1(
    compiled: CompiledRound,
    budgets: Mapping[str, int],
    failure_probabilities: Mapping[str, float],
    instances: Mapping[str, float],
    reliability_goal: float,
    retransmission_periods_ms: Optional[Mapping[str, float]],
    dynamic_retransmission_slots_per_cycle: Union[int, Mapping[str, int]],
    budget: DiagnosticBudget,
) -> None:
    # The log-space success product itself is ANA204's
    # (check_retransmission_plan), which every caller with a plan runs
    # beside this rule; so is the diagnosis of a goal outside (0, 1]
    # or a message without an instance rate, on which this rule only
    # stands down.
    location = "round.theorem1"
    if not 0.0 < reliability_goal <= 1.0 or any(
            message not in instances for message in failure_probabilities):
        return
    # Budget fundability: a retransmission of instance i must land
    # before the next instance releases (constrained deadlines), so at
    # most ``available`` of the k_z planned attempts structurally exist
    # inside a period window -- the worst (minimum-slack) alignment
    # over the pattern is what the steady-state extrapolation leans on.
    # Theorem 1 is purely probabilistic and can over-budget; that is
    # wasteful but not unsound, so the error fires only when the
    # *fundable* budgets no longer clear the goal.
    if retransmission_periods_ms is None:
        return
    cycle_ms = compiled.params.cycle_ms
    clipped: List[str] = []
    fundable: Dict[str, int] = {}
    for message in sorted(failure_probabilities):
        k_z = budgets.get(message, 0)
        period = retransmission_periods_ms.get(message)
        k_eff = k_z
        if k_z > 0 and period is not None and period > 0:
            window_cycles = max(1, math.ceil(period / cycle_ms))
            if isinstance(dynamic_retransmission_slots_per_cycle,
                          Mapping):
                per_cycle = dynamic_retransmission_slots_per_cycle.get(
                    message, 0)
            else:
                per_cycle = dynamic_retransmission_slots_per_cycle
            reserved = per_cycle * window_cycles
            available = min(
                compiled.idle_slots_between(base, base + window_cycles)
                for base in range(compiled.pattern_length)
            ) + reserved
            k_eff = min(k_z, available)
            if k_eff < k_z:
                clipped.append(f"{message}: k={k_z} fundable={k_eff}")
        fundable[message] = k_eff
    effective_log = plan_log_probability(failure_probabilities, instances,
                                         fundable)
    if clipped and effective_log < goal_log_probability(reliability_goal):
        achieved_gamma = -math.expm1(effective_log)
        budget.add(Diagnostic(
            rule_id="MDL404", severity=Severity.ERROR,
            location=f"{location}.capacity",
            message=f"the structurally fundable budgets "
                    f"({'; '.join(clipped)}; worst-alignment idle "
                    f"slots plus reserved dynamic capacity per period "
                    f"window) miss the reliability goal: failure "
                    f"probability {achieved_gamma:.6g} > allowed gamma "
                    f"{1.0 - reliability_goal:.6g}",
            fix_hint="free static slots, reserve dynamic capacity, or "
                     "re-plan against the structural supply",
        ))

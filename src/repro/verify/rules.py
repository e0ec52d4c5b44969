"""Rule catalogue of the configuration verifier.

Every check the verifier can emit is declared here with its stable id,
default severity and a one-line description.  ``docs/static_analysis.md``
has one table row per catalogued rule; ``tests/test_rule_docs.py``
keeps the tables and the catalogues in step.

The contract checker's ``DET*``/``EFF*``/``MDL*`` rules live in
:mod:`repro.check.rules`, built with the same :class:`Rule` and
:func:`catalogue`; both emit the
:class:`~repro.verify.diagnostics.Diagnostic` shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.verify.diagnostics import Severity

__all__ = ["Rule", "VERIFY_RULES", "catalogue"]


@dataclass(frozen=True)
class Rule:
    """Metadata of one verifier rule."""

    rule_id: str
    title: str
    severity: Severity
    description: str


def catalogue(*rules: Rule) -> Dict[str, Rule]:
    """Key rules by id, in declaration order."""
    return {rule.rule_id: rule for rule in rules}


#: Every rule the configuration verifier can emit, keyed by id.
VERIFY_RULES: Dict[str, Rule] = catalogue(
    # ---------------------------------------------------------------- FRC
    Rule("FRC001", "cycle-arithmetic-mismatch", Severity.ERROR,
         "static + dynamic + symbol window + NIT must equal gdCycle."),
    Rule("FRC002", "segment-overflow", Severity.ERROR,
         "Static + dynamic + symbol window exceed the communication "
         "cycle (NIT would be negative)."),
    Rule("FRC003", "nit-empty", Severity.WARNING,
         "The network idle time is zero; the spec needs NIT headroom "
         "for clock correction."),
    Rule("FRC004", "static-slot-count-range", Severity.ERROR,
         "gNumberOfStaticSlots must be in [2, 1023] "
         "(cStaticSlotIDMax; >= 2 sync frames)."),
    Rule("FRC005", "minislot-count-mismatch", Severity.ERROR,
         "gNumberOfMinislots disagrees with the declared dynamic-segment "
         "length (dynamic_segment_mt != minislots * gdMinislot)."),
    Rule("FRC006", "slot-capacity-nonpositive", Severity.ERROR,
         "A static slot is too short to carry any payload after action "
         "points and frame overhead."),
    Rule("FRC007", "latest-tx-out-of-range", Severity.ERROR,
         "pLatestTx must lie within [0, gNumberOfMinislots]."),
    Rule("FRC008", "channel-count-invalid", Severity.ERROR,
         "FlexRay clusters have one or two channels."),
    Rule("FRC009", "parameter-nonpositive", Severity.ERROR,
         "A duration/rate parameter (macrotick, cycle, slot, minislot, "
         "bit rate) must be positive."),
    # ---------------------------------------------------------------- FRS
    Rule("FRS101", "slot-out-of-range", Severity.ERROR,
         "A schedule assignment references a slot id outside "
         "[1, gNumberOfStaticSlots]."),
    Rule("FRS102", "slot-overlap", Severity.ERROR,
         "Two assignments share a (channel, slot) with colliding cycle "
         "patterns: both would transmit in the same slot of the same "
         "cycle."),
    Rule("FRS103", "payload-exceeds-slot", Severity.ERROR,
         "A frame's payload does not fit the static-slot capacity."),
    Rule("FRS104", "channel-not-configured", Severity.ERROR,
         "The schedule assigns a channel the cluster configuration does "
         "not have (channel B on a single-channel cluster)."),
    Rule("FRS105", "frame-id-slot-mismatch", Severity.ERROR,
         "A bound frame's frame_id differs from the slot it is assigned "
         "to."),
    Rule("FRS106", "cycle-pattern-invalid", Severity.ERROR,
         "cycle_repetition must be a power of two <= 64 and base_cycle "
         "must lie in [0, repetition)."),
    Rule("FRS107", "schedule-infeasible", Severity.ERROR,
         "The static segment cannot host the periodic workload (the "
         "allocator or packer failed outright)."),
    Rule("FRS110", "round-owner-mismatch", Severity.ERROR,
         "A compiled round's owner view disagrees with its source "
         "schedule's lookup over the 64 cycle-counter values (missing "
         "coverage, a phantom owner, or a pattern_length shorter than "
         "the schedule's true period)."),
    Rule("FRS113", "round-steps-inconsistent", Severity.ERROR,
         "A compiled round's static-step view (the batch geometry the "
         "stepper and the vectorized engine execute) disagrees with the "
         "flat schedule arrays: steps out of slot order, a wrong action "
         "offset, entries out of channel order, a phantom entry, or an "
         "owned slot missing from the steps."),
    # ---------------------------------------------------------------- ANA
    Rule("ANA201", "slack-negative", Severity.ERROR,
         "A slack-table entry is negative: guaranteed idle capacity can "
         "never be below zero."),
    Rule("ANA202", "slack-not-monotonic", Severity.ERROR,
         "Level-i slack must be non-decreasing in the horizon and "
         "non-increasing in the priority level (level i+1 serves a "
         "superset of the interference)."),
    Rule("ANA203", "utilization-overload", Severity.ERROR,
         "Level-i utilization >= 1: the busy-period recurrence "
         "diverges, no response-time bound exists."),
    Rule("ANA204", "theorem1-goal-missed", Severity.ERROR,
         "The retransmission budgets do not reach the reliability goal: "
         "prod (1 - p_z^(k_z+1))^(u/T_z) < rho."),
    Rule("ANA205", "deadline-exceeds-period", Severity.ERROR,
         "A hard periodic message has D > T; the constrained-deadline "
         "analysis does not cover it."),
    Rule("ANA206", "retransmission-budget-invalid", Severity.ERROR,
         "A retransmission budget k_z is negative or exceeds the "
         "planner's cap."),
    Rule("ANA207", "plan-declared-infeasible", Severity.WARNING,
         "The retransmission plan itself records feasible=False; the "
         "reliability goal is not reachable at this BER."),
)

"""Analysis-object checks (``ANA*`` rules).

These rules verify the *outputs and preconditions of the offline
analyses* rather than the cluster geometry: slack tables, the
busy-period convergence precondition, Theorem-1 retransmission plans,
and the constrained-deadline assumption every response-time bound in
the repo rests on.

A "slack table" here is the generic shape both slack providers reduce
to: per priority level, the cumulative guaranteed slack at increasing
horizons (``slack[level][h]`` = slack available in ``[0, horizon_h]``).
The idle tables of a :class:`~repro.timeline.compiler.CompiledRound`
and the :class:`~repro.core.slack_stealing.SlackStealer` level-idle
tables are both projected onto it by :mod:`repro.verify.verifier`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Tuple

from repro.core.retransmission import (
    MAX_RETRANSMISSIONS,
    goal_log_probability,
    plan_log_probability,
)
from repro.verify.diagnostics import Diagnostic, Report, Severity

__all__ = ["check_slack_table", "check_utilization",
           "check_retransmission_plan", "check_deadlines"]


def check_slack_table(levels: Sequence[Sequence[float]],
                      location: str = "slack_table") -> Report:
    """``ANA201``/``ANA202``: slack sanity over levels and horizons.

    Args:
        levels: ``levels[i][h]`` = cumulative slack of priority level
            ``i`` at horizon index ``h``.  Rows may differ in length;
            cross-level monotonicity is checked on the common prefix.
        location: Location prefix for the diagnostics.

    Returns:
        A :class:`Report`; empty when the table is plausible.
    """
    report = Report()
    for level, row in enumerate(levels):
        for horizon, value in enumerate(row):
            # ANA201: slack is a capacity; it can never be negative.
            if value < 0:
                report.add(Diagnostic(
                    rule_id="ANA201", severity=Severity.ERROR,
                    location=f"{location}[{level}][{horizon}]",
                    message=f"slack entry is {value:g} < 0",
                    fix_hint="recompute the idle-period scan; negative "
                             "slack means demand was double-counted",
                ))
            # ANA202 (horizon direction): cumulative slack over a longer
            # window can only grow.
            if horizon > 0 and value < row[horizon - 1]:
                report.add(Diagnostic(
                    rule_id="ANA202", severity=Severity.ERROR,
                    location=f"{location}[{level}][{horizon}]",
                    message=f"cumulative slack drops from "
                            f"{row[horizon - 1]:g} to {value:g} as the "
                            f"horizon grows",
                    fix_hint="cumulative tables must be non-decreasing "
                             "in the horizon",
                ))
    # ANA202 (level direction): level i+1 suffers at least level i's
    # interference, so its slack can never exceed level i's.
    for level in range(1, len(levels)):
        shared = min(len(levels[level - 1]), len(levels[level]))
        for horizon in range(shared):
            upper = levels[level - 1][horizon]
            lower = levels[level][horizon]
            if lower > upper:
                report.add(Diagnostic(
                    rule_id="ANA202", severity=Severity.ERROR,
                    location=f"{location}[{level}][{horizon}]",
                    message=f"level {level} slack {lower:g} exceeds level "
                            f"{level - 1} slack {upper:g} at the same "
                            f"horizon",
                    fix_hint="deeper levels include more interference; "
                             "check the level ordering",
                ))
    return report


def check_utilization(tasks: Sequence[Tuple[float, float]],
                      location: str = "tasks") -> Report:
    """``ANA203``: the busy-period recurrence must converge.

    Args:
        tasks: ``(C_j, T_j)`` pairs in priority order (0 = highest).
        location: Location prefix for the diagnostics.

    Returns:
        A :class:`Report` flagging every level whose cumulative
        utilization reaches 1 (only the first offending level is
        reported per monotone prefix -- every deeper level is also
        overloaded by implication).
    """
    report = Report()
    utilization = 0.0
    for level, (execution, period) in enumerate(tasks):
        if period <= 0 or execution < 0:
            report.add(Diagnostic(
                rule_id="ANA203", severity=Severity.ERROR,
                location=f"{location}[{level}]",
                message=f"task has C={execution:g}, T={period:g}; "
                        f"need C >= 0 and T > 0",
                fix_hint="check the (C, T) extraction",
            ))
            return report
        utilization += execution / period
        if utilization >= 1.0:
            report.add(Diagnostic(
                rule_id="ANA203", severity=Severity.ERROR,
                location=f"{location}[{level}]",
                message=f"level-{level} utilization "
                        f"{utilization:.3f} >= 1; the busy period is "
                        f"unbounded",
                fix_hint="shed load or lengthen periods before running "
                         "the response-time analysis",
            ))
            return report
    return report


def check_retransmission_plan(
    failure_probabilities: Mapping[str, float],
    instances: Mapping[str, float],
    budgets: Mapping[str, int],
    rho: float,
    location: str = "plan",
    max_budget: int = MAX_RETRANSMISSIONS,
) -> Report:
    """``ANA204``/``ANA206``: Theorem-1 feasibility of a plan.

    Recomputes the success-probability product from scratch (log space,
    :func:`~repro.core.retransmission.plan_log_probability`) and
    compares against the goal -- the verifier must not trust the
    planner's own ``feasible`` flag.

    Args:
        failure_probabilities: ``message -> p_z``.
        instances: ``message -> u / T_z``.
        budgets: ``message -> k_z`` (missing messages default to 0).
        rho: Reliability goal in (0, 1].
        location: Location prefix for the diagnostics.
        max_budget: Per-message budget cap (``ANA206``).

    Returns:
        A :class:`Report`; empty when the plan meets the goal.
    """
    report = Report()
    if not 0.0 < rho <= 1.0:
        report.add(Diagnostic(
            rule_id="ANA204", severity=Severity.ERROR,
            location=f"{location}.rho",
            message=f"reliability goal rho={rho:g} outside (0, 1]",
            fix_hint="rho = 1 - gamma for the configured SIL",
        ))
        return report

    for message in sorted(budgets):
        budget = budgets[message]
        # ANA206: budgets must be sane before the product means anything.
        if not 0 <= budget <= max_budget:
            report.add(Diagnostic(
                rule_id="ANA206", severity=Severity.ERROR,
                location=f"{location}.budgets[{message}]",
                message=f"k_z = {budget} outside [0, {max_budget}]",
                fix_hint="re-run the planner; budgets beyond the cap "
                         "signal degenerate inputs",
            ))
    if report.has_errors:
        return report

    for message in sorted(failure_probabilities):
        if message not in instances:
            report.add(Diagnostic(
                rule_id="ANA204", severity=Severity.ERROR,
                location=f"{location}.instances[{message}]",
                message="no instance count (u/T_z) for this message",
                fix_hint="every planned message needs its rate",
            ))
            return report

    log_total = plan_log_probability(failure_probabilities, instances,
                                     budgets)
    gamma = 1.0 - rho
    if log_total < goal_log_probability(rho):
        # Report in failure-probability space: at automotive goals both
        # sides are within 1e-9 of 1.0 and would print identically.
        achieved_gamma = -math.expm1(log_total)
        report.add(Diagnostic(
            rule_id="ANA204", severity=Severity.ERROR,
            location=location,
            message=f"prod (1 - p_z^(k_z+1))^(u/T_z) misses the goal: "
                    f"failure probability {achieved_gamma:.6g} > "
                    f"allowed gamma {gamma:.6g}",
            fix_hint="raise the budgets of the highest-rate lossy "
                     "messages or relax the goal",
        ))
    return report


def check_deadlines(
    messages: Sequence[Tuple[str, float, float]],
    location: str = "workload",
) -> Report:
    """``ANA205``: constrained deadlines (D <= T) for hard periodic tasks.

    Args:
        messages: ``(name, deadline, period)`` triples, one per hard
            periodic message (aperiodic messages are not subject to the
            constrained-deadline model and must not be passed).
        location: Location prefix for the diagnostics.

    Returns:
        A :class:`Report`; empty when every deadline is constrained.
    """
    report = Report()
    for name, deadline, period in messages:
        if deadline > period:
            report.add(Diagnostic(
                rule_id="ANA205", severity=Severity.ERROR,
                location=f"{location}.{name}",
                message=f"deadline {deadline:g} ms exceeds period "
                        f"{period:g} ms",
                fix_hint="the schedulability analysis assumes D <= T; "
                         "tighten the deadline or model the message as "
                         "aperiodic",
            ))
    return report

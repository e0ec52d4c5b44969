"""Verification orchestrators.

Two entry points at two altitudes:

- :func:`verify_configuration` -- run the rule groups against whatever
  artifacts the caller already has (a params object, a schedule table, a
  slack table, a retransmission plan).  Anything not supplied is simply
  not checked; nothing is simulated or constructed.

- :func:`verify_experiment` -- the pre-campaign gate: given the same
  inputs :func:`repro.experiments.runner.run_experiment` takes, *build*
  the offline artifacts exactly the way the CoEfficient policy does
  (same packer, same allocator strategy, same Theorem-1 planner inputs)
  and verify all of them.  This is what ``run_campaign(validate=True)``
  and ``repro verify-config`` call: a failing configuration is diagnosed
  in milliseconds instead of after a Monte-Carlo campaign.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple, Union

from repro.core.retransmission import RetransmissionPlan
from repro.protocol.channel import Channel
from repro.protocol.frame import frame_duration_mt
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.schedule import (
    ChannelStrategy,
    ScheduleTable,
)
from repro.protocol.signal import SignalSet
from repro.packing.frame_packing import pack_signals
from repro.verify.analysis_checks import (
    check_deadlines,
    check_retransmission_plan,
    check_slack_table,
    check_utilization,
)
from repro.timeline.compiler import CompiledRound, compile_round
from repro.verify.config_checks import check_params
from repro.verify.diagnostics import Diagnostic, Report, Severity
from repro.verify.round_checks import check_compiled_round
from repro.verify.schedule_checks import ScheduleLike, check_schedule

__all__ = ["verify_configuration", "verify_experiment",
           "ConfigurationError"]


class ConfigurationError(ValueError):
    """A static gate found errors; carries the full report."""

    def __init__(self, report: Report) -> None:
        super().__init__(
            "configuration failed static verification:\n" + report.format())
        self.report = report


def _slack_levels(slack_table: Union[CompiledRound,
                                     Sequence[Sequence[float]]]) \
        -> Sequence[Sequence[float]]:
    """Project a slack provider onto the generic cumulative-table shape."""
    if isinstance(slack_table, CompiledRound):
        return [[float(slack_table.idle_slots_between(0, cycle + 1))
                 for cycle in range(slack_table.pattern_length)]]
    return slack_table


def verify_configuration(
    params: Optional[Union[SegmentGeometry, Mapping[str, float]]] = None,
    schedule: Optional[ScheduleLike] = None,
    workload: Optional[Sequence[Tuple[str, float, float]]] = None,
    tasks: Optional[Sequence[Tuple[float, float]]] = None,
    slack_table: Optional[Union[CompiledRound,
                                Sequence[Sequence[float]]]] = None,
    plan: Optional[Union[RetransmissionPlan, Mapping[str, int]]] = None,
    failure_probabilities: Optional[Mapping[str, float]] = None,
    instances: Optional[Mapping[str, float]] = None,
    reliability_goal: Optional[float] = None,
    compiled: Optional[CompiledRound] = None,
) -> Report:
    """Verify whichever offline artifacts are supplied.

    Args:
        params: Cluster configuration (``FRC*`` rules).  Required when
            ``schedule`` is given (the table is checked against it).
        schedule: Static-segment schedule (``FRS*`` rules).
        compiled: A compiled communication round (``FRS11x`` rules);
            cross-checked against ``schedule`` when that is a
            :class:`~repro.protocol.schedule.ScheduleTable`.
        workload: ``(name, deadline_ms, period_ms)`` triples of hard
            periodic messages (``ANA205``).
        tasks: ``(C, T)`` pairs in priority order (``ANA203``).
        slack_table: A :class:`~repro.timeline.compiler.CompiledRound`
            (its idle tables) or a raw ``levels x horizons`` cumulative
            table (``ANA201/202``).
        plan: Retransmission budgets -- a :class:`RetransmissionPlan`
            or a plain ``message -> k_z`` mapping (``ANA204/206/207``);
            needs ``failure_probabilities``, ``instances`` and
            ``reliability_goal``.
        failure_probabilities: ``message -> p_z`` for the plan check.
        instances: ``message -> u/T_z`` for the plan check.
        reliability_goal: rho for the plan check (defaults to the
            plan's own recorded goal when a full plan is given).

    Returns:
        The merged :class:`Report` over every requested rule group.
    """
    report = Report()
    if params is not None:
        report.merge(check_params(params))
    if schedule is not None:
        if not isinstance(params, SegmentGeometry):
            raise ValueError(
                "schedule verification needs a SegmentGeometry instance")
        report.merge(check_schedule(schedule, params))
    if compiled is not None:
        source = schedule if isinstance(schedule, ScheduleTable) else None
        report.merge(check_compiled_round(compiled, table=source))
        # The hyperperiod model checker proves the round's window,
        # owner and slack invariants over its pattern (MDL4xx) --
        # structural rules only at this altitude; verify_experiment
        # supplies the Theorem-1 inputs.
        from repro.check.model_checker import check_hyperperiod_model
        report.merge(check_hyperperiod_model(compiled))
    if workload is not None:
        report.merge(check_deadlines(workload))
    if tasks is not None:
        report.merge(check_utilization(tasks))
    if slack_table is not None:
        report.merge(check_slack_table(_slack_levels(slack_table)))
    if plan is not None:
        budgets: Mapping[str, int]
        if isinstance(plan, RetransmissionPlan):
            budgets = plan.budgets
            if reliability_goal is None:
                import math
                reliability_goal = math.exp(plan.goal_log_probability)
            if not plan.feasible:
                report.add(Diagnostic(
                    rule_id="ANA207", severity=Severity.WARNING,
                    location="plan",
                    message="the planner itself recorded feasible=False",
                    fix_hint="the goal is unreachable at this BER even "
                             "with maximal budgets",
                ))
        else:
            budgets = plan
        if failure_probabilities is None or instances is None \
                or reliability_goal is None:
            raise ValueError(
                "plan verification needs failure_probabilities, instances "
                "and a reliability goal")
        report.merge(check_retransmission_plan(
            failure_probabilities, instances, budgets, reliability_goal))
    return report


def verify_experiment(
    params: SegmentGeometry,
    periodic: Optional[SignalSet] = None,
    aperiodic: Optional[SignalSet] = None,
    ber: float = 1e-7,
    reliability_goal: float = 0.99999,
    time_unit_ms: float = 1000.0,
    uniform_budget: bool = False,
    strategy: str = ChannelStrategy.DISTRIBUTE,
) -> Report:
    """Build and verify every offline artifact of one experiment.

    Mirrors the offline-planning path of
    :class:`~repro.core.coefficient.CoEfficientPolicy` (same packer,
    same allocator strategy, same failure-probability and instance-rate
    derivation) without constructing a cluster or running a cycle.

    Args:
        params: Cluster configuration.
        periodic: Time-triggered workload (may be ``None``).
        aperiodic: Event-triggered workload (may be ``None``).
        ber: Bit error rate (Theorem-1 failure probabilities).
        reliability_goal: rho the plan must reach.
        time_unit_ms: Theorem-1 time unit u.
        uniform_budget: Verify the uniform-k ablation plan instead of
            the differentiated plan.
        strategy: Channel strategy for the schedule build.

    Returns:
        The merged :class:`Report`; :attr:`Report.has_errors` is the
        gate decision.
    """
    report = check_params(params)

    workload: Optional[SignalSet] = None
    if periodic is not None and aperiodic is not None:
        workload = periodic.merged_with(aperiodic)
    else:
        workload = periodic or aperiodic
    if workload is None:
        report.add(Diagnostic(
            rule_id="ANA205", severity=Severity.ERROR,
            location="workload",
            message="experiment has no workload at all",
            fix_hint="supply a periodic and/or aperiodic signal set",
        ))
        return report

    report.merge(check_deadlines([
        (signal.name, signal.deadline_ms, signal.period_ms)
        for signal in workload if not signal.aperiodic
    ]))
    if report.has_errors:
        # Geometry or deadlines are already broken; the builders below
        # would raise on the same root causes with worse messages.
        return report

    try:
        packing = pack_signals(workload, params)
        table = params.build_schedule(packing.static_frames(),
                                      strategy=strategy)
    except (ValueError, RuntimeError) as error:
        report.add(Diagnostic(
            rule_id="FRS107", severity=Severity.ERROR,
            location="schedule",
            message=f"offline construction failed: {error}",
            fix_hint="add static slots, lengthen the cycle, or shrink "
                     "the workload",
        ))
        return report

    report.merge(check_schedule(table, params))

    channels = [Channel.A]
    if params.channel_count == 2:
        channels.append(Channel.B)
    # Compile the round exactly as the policy's bind does and verify it
    # against the table it came from; the slack check then reads the
    # same compiled tables the online scheduler will.
    compiled = compile_round(table, params, channels)
    report.merge(check_compiled_round(compiled, table=table))
    report.merge(check_slack_table(_slack_levels(compiled)))

    # Busy-period precondition, projected onto the static segment as a
    # server: average wire demand per cycle must stay below the static
    # capacity the configured channels offer per cycle.
    demand_mt = 0.0
    for message in packing.periodic_messages():
        per_instance = sum(
            frame_duration_mt(chunk.payload_bits, params)
            for chunk in message.chunks
        )
        demand_mt += per_instance * (params.cycle_ms / message.period_ms)
    supply_mt = float(params.static_segment_mt * len(channels))
    report.merge(check_utilization([(demand_mt, supply_mt)],
                                   location="static_segment"))

    # Theorem-1 plan, derived exactly as CoEfficientPolicy.on_bound does,
    # then the hyperperiod model check with full Theorem-1 inputs: the
    # structural MDL rules plus the log-space goal and the fundability
    # of the planned budgets, extrapolated over every pattern.
    from repro.check.model_checker import (
        check_hyperperiod_model,
        theorem1_inputs,
    )
    plan, inputs = theorem1_inputs(packing, params, ber, reliability_goal,
                                   time_unit_ms,
                                   uniform_budget=uniform_budget)
    report.merge(verify_configuration(
        plan=plan,
        failure_probabilities=inputs["failure_probabilities"],
        instances=inputs["instances"],
        reliability_goal=reliability_goal,
    ))
    report.merge(check_hyperperiod_model(compiled, **inputs))
    return report

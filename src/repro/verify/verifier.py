"""The pre-campaign gate: build and verify one experiment's offline artifacts.

:func:`verify_experiment` takes the inputs
:func:`repro.experiments.runner.run_experiment` takes, *builds* the
offline artifacts exactly the way the CoEfficient policy does (same
packer, same allocator strategy, same Theorem-1 plan from
:func:`~repro.core.retransmission.derive_theorem1_plan`) and verifies
all of them: a failing configuration is diagnosed in milliseconds
instead of after a Monte-Carlo campaign.  ``run_campaign(validate=True)``,
``repro serve`` and the per-workload pass of ``repro check`` call it.
:func:`compile_experiment` is the build half alone; ``repro check``
uses it to shrink a round that breaks a structural ``MDL`` rule.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.retransmission import derive_theorem1_plan
from repro.packing.frame_packing import PackingResult, pack_signals
from repro.protocol.channel import Channel
from repro.protocol.frame import frame_duration_mt
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.schedule import ChannelStrategy, ScheduleTable
from repro.protocol.signal import SignalSet
from repro.timeline.compiler import CompiledRound, compile_round
from repro.verify.analysis_checks import (
    check_deadlines,
    check_retransmission_plan,
    check_slack_table,
    check_utilization,
)
from repro.verify.config_checks import check_params
from repro.verify.diagnostics import Diagnostic, Report, Severity
from repro.verify.round_checks import check_compiled_round
from repro.verify.schedule_checks import check_schedule

__all__ = ["compile_experiment", "verify_experiment", "ConfigurationError"]


class ConfigurationError(ValueError):
    """A static gate found errors; carries the full report."""

    def __init__(self, report: Report) -> None:
        super().__init__(
            "configuration failed static verification:\n" + report.format())
        self.report = report


def _workload(periodic: Optional[SignalSet],
              aperiodic: Optional[SignalSet]) -> Optional[SignalSet]:
    if periodic is not None and aperiodic is not None:
        return periodic.merged_with(aperiodic)
    return periodic or aperiodic


def compile_experiment(
    params: SegmentGeometry,
    periodic: Optional[SignalSet] = None,
    aperiodic: Optional[SignalSet] = None,
) -> Tuple[PackingResult, ScheduleTable, CompiledRound]:
    """Pack, schedule and compile one experiment as CoEfficient's bind
    does.

    Raises:
        ValueError: There is no workload, or it does not fit the
            cluster (``RuntimeError`` from some builders).
    """
    workload = _workload(periodic, aperiodic)
    if workload is None:
        raise ValueError("experiment has no workload at all")
    packing = pack_signals(workload, params)
    table = params.build_schedule(packing.static_frames(),
                                  strategy=ChannelStrategy.DISTRIBUTE)
    channels = [Channel.A]
    if params.channel_count == 2:
        channels.append(Channel.B)
    return packing, table, compile_round(table, params, channels)


def verify_experiment(
    params: SegmentGeometry,
    periodic: Optional[SignalSet] = None,
    aperiodic: Optional[SignalSet] = None,
    ber: float = 1e-7,
    reliability_goal: float = 0.99999,
    time_unit_ms: float = 1000.0,
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

    Returns:
        The merged :class:`Report`; :attr:`Report.has_errors` is the
        gate decision.
    """
    report = check_params(params)

    workload = _workload(periodic, aperiodic)
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
        packing, table, compiled = compile_experiment(params, workload)
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
    # The compiled round against the table it came from; the slack
    # check then reads the same compiled tables the online scheduler
    # will.
    report.merge(check_compiled_round(compiled, table=table))
    report.merge(check_slack_table([[
        float(compiled.idle_slots_between(0, cycle + 1))
        for cycle in range(compiled.pattern_length)]]))

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
    supply_mt = float(params.static_segment_mt * len(compiled.channels))
    report.merge(check_utilization([(demand_mt, supply_mt)],
                                   location="static_segment"))

    # The Theorem-1 plan CoEfficientPolicy binds, then the hyperperiod
    # model check with its inputs: the structural MDL rules plus the
    # fundability of the planned budgets over every pattern.
    from repro.check.model_checker import check_hyperperiod_model

    derived = derive_theorem1_plan(packing, params, ber, reliability_goal,
                                   time_unit_ms)
    if not derived.plan.feasible:
        report.add(Diagnostic(
            rule_id="ANA207", severity=Severity.WARNING,
            location="plan",
            message="the planner itself recorded feasible=False",
            fix_hint="the goal is unreachable at this BER even "
                     "with maximal budgets",
        ))
    report.merge(check_retransmission_plan(
        derived.failure_probabilities, derived.instances,
        derived.plan.budgets, reliability_goal))
    report.merge(check_hyperperiod_model(compiled,
                                         **derived.model_inputs()))
    return report

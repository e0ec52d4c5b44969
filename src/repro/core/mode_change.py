"""Mode changes: online admission of new message streams.

Production vehicles reconfigure communication at runtime -- a diagnostic
session opens, a driver-assist feature activates -- and the scheduler
must decide whether the new stream fits without jeopardizing what is
already guaranteed.  The paper's machinery contains everything needed
for that decision (schedulability validation, Theorem-1 re-planning);
this module composes it into an admission-control API, the natural
"future work" extension of CoEfficient:

1. tentatively re-pack the workload with the candidate signal;
2. rebuild the static schedule; reject if infeasible;
3. validate analytically that *every* periodic message -- old and new --
   still meets its deadline in fault-free operation;
4. re-solve Theorem 1 for the enlarged set; reject if the reliability
   goal becomes unreachable;
5. check the new plan's slack demand against the new schedule's
   structural idle supply.

Admission is transactional: the returned decision carries the new
packing/plan for the caller to swap in at a cycle boundary, and the
current configuration is untouched on rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.validator import MessageValidation, validate_schedule
from repro.core.retransmission import (
    RetransmissionPlan,
    derive_theorem1_plan,
)
from repro.faults.ber import BitErrorRateModel
from repro.protocol.channel import Channel
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.schedule import (
    ChannelStrategy,
    ScheduleInfeasibleError,
    ScheduleTable,
)
from repro.protocol.signal import Signal, SignalSet
from repro.packing.frame_packing import PackingResult, pack_signals
from repro.timeline.compiler import compile_round

__all__ = ["AdmissionDecision", "ModeChangeController"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt.

    Attributes:
        admitted: Whether the signal can join.
        reason: Human-readable explanation.
        packing: The new packing (``None`` on rejection).
        table: The new schedule table (``None`` on rejection).
        plan: The new retransmission plan (``None`` on rejection or when
            no reliability goal is configured).
        validations: Per-message analytical results (present whenever
            the schedule could be built, even on rejection -- the
            culprits are visible).
    """

    admitted: bool
    reason: str
    packing: Optional[PackingResult] = None
    table: Optional[ScheduleTable] = None
    plan: Optional[RetransmissionPlan] = None
    validations: Sequence[MessageValidation] = ()


class ModeChangeController:
    """Transactional admission control over a running configuration.

    Args:
        params: Cluster parameters (fixed across mode changes).
        signals: The currently admitted workload.
        ber_model: Fault environment for Theorem-1 re-planning.
        reliability_goal: rho; ``None`` disables the reliability check.
        time_unit_ms: Theorem-1 time unit.
        strategy: Channel strategy for rebuilt schedules.
        require_deadlines: Reject when any periodic message fails the
            analytical deadline check (set ``False`` for soft systems
            that tolerate documented violations).
    """

    def __init__(
        self,
        params: SegmentGeometry,
        signals: SignalSet,
        ber_model: Optional[BitErrorRateModel] = None,
        reliability_goal: Optional[float] = None,
        time_unit_ms: float = 1000.0,
        strategy: str = ChannelStrategy.DISTRIBUTE,
        require_deadlines: bool = True,
    ) -> None:
        self._params = params
        self._signals = signals
        self._ber_model = ber_model
        self._rho = reliability_goal
        self._time_unit_ms = time_unit_ms
        self._strategy = strategy
        self._require_deadlines = require_deadlines
        self.history: List[AdmissionDecision] = []
        # The baseline must itself be admissible.
        baseline = self._evaluate(signals)
        if not baseline.admitted:
            raise ValueError(
                f"current workload is not admissible: {baseline.reason}"
            )
        self._current = baseline

    @property
    def signals(self) -> SignalSet:
        """The currently admitted workload."""
        return self._signals

    @property
    def current(self) -> AdmissionDecision:
        """The current configuration's evaluation."""
        return self._current

    # ------------------------------------------------------------------

    def _evaluate(self, signals: SignalSet) -> AdmissionDecision:
        try:
            packing = pack_signals(signals, self._params)
        except ValueError as error:
            return AdmissionDecision(admitted=False,
                                     reason=f"unpackable: {error}")
        try:
            table = self._params.build_schedule(packing.static_frames(),
                                                self._strategy)
        except ScheduleInfeasibleError as error:
            return AdmissionDecision(admitted=False,
                                     reason=f"schedule infeasible: {error}")

        validations = validate_schedule(table, packing, self._params)
        if self._require_deadlines:
            violators = [v.message_id for v in validations
                         if not v.meets_deadline]
            if violators:
                return AdmissionDecision(
                    admitted=False,
                    reason=f"deadline violations: {violators}",
                    validations=validations,
                )

        plan: Optional[RetransmissionPlan] = None
        if self._rho is not None and self._ber_model is not None:
            derived = derive_theorem1_plan(
                packing, self._params, self._ber_model.ber_for("A"),
                self._rho, self._time_unit_ms)
            plan = derived.plan
            if not plan.feasible:
                return AdmissionDecision(
                    admitted=False,
                    reason="reliability goal unreachable for the "
                           "enlarged set",
                    validations=validations,
                )
            # Slack demand vs structural supply over the time unit.
            compiled = compile_round(table, table.params,
                                     [Channel.A, Channel.B])
            unit_cycles = max(1, int(self._time_unit_ms
                                     / self._params.cycle_ms))
            supply = compiled.idle_slots_between(0, unit_cycles)
            demand = sum(
                budget * derived.instances[message]
                for message, budget in plan.budgets.items()
            )
            if demand > supply:
                return AdmissionDecision(
                    admitted=False,
                    reason=f"retransmission demand ({demand:.0f} slots "
                           f"per unit) exceeds structural slack "
                           f"({supply})",
                    validations=validations,
                    plan=plan,
                )

        return AdmissionDecision(
            admitted=True, reason="fits", packing=packing, table=table,
            plan=plan, validations=validations,
        )

    # ------------------------------------------------------------------

    def try_admit(self, signal: Signal) -> AdmissionDecision:
        """Attempt to admit one new signal.

        On success the controller's current workload is updated; on
        rejection nothing changes.  Either way the decision is appended
        to :attr:`history`.
        """
        if signal.name in self._signals:
            decision = AdmissionDecision(
                admitted=False,
                reason=f"duplicate signal name {signal.name!r}",
            )
            self.history.append(decision)
            return decision
        candidate = SignalSet(self._signals.signals + [signal],
                              name=self._signals.name)
        decision = self._evaluate(candidate)
        self.history.append(decision)
        if decision.admitted:
            self._signals = candidate
            self._current = decision
        return decision

    def retire(self, signal_name: str) -> AdmissionDecision:
        """Remove a signal (always succeeds; frees its capacity)."""
        remaining = [s for s in self._signals if s.name != signal_name]
        if len(remaining) == len(self._signals):
            decision = AdmissionDecision(
                admitted=False,
                reason=f"no signal named {signal_name!r}",
            )
            self.history.append(decision)
            return decision
        candidate = SignalSet(remaining, name=self._signals.name)
        decision = self._evaluate(candidate)
        self.history.append(decision)
        if decision.admitted:
            self._signals = candidate
            self._current = decision
        return decision

"""Differentiated retransmission planning (Section III-E, Theorem 1).

Given per-message failure probabilities ``p_z``, instance rates
``u / T_z`` and a reliability goal ``rho``, choose the retransmission
budget vector ``k_z`` so that

    prod_z (1 - p_z^{k_z+1})^{u/T_z}  >=  rho

at minimum cost.  "Different reliability goals may produce different
sets of retransmitted segments" -- messages whose single-shot success
already suffices get ``k_z = 0`` and are *not* selected for
retransmission, which is the selectivity the bandwidth savings come from.

The planner is greedy in log space: each step buys one retransmission
for the message with the best marginal improvement of the goal gap per
unit of bandwidth cost (``W_z / T_z`` -- retransmitting a big frequent
message costs more slack).  Greedy is optimal here because the marginal
log-gain of each additional k for a fixed message is strictly decreasing
(diminishing returns) and costs are additive.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.faults.analysis import log_message_success_probability
from repro.faults.ber import frame_failure_probability

if TYPE_CHECKING:
    from repro.packing.frame_packing import PackingResult
    from repro.protocol.geometry import SegmentGeometry

__all__ = ["RetransmissionPlan", "Theorem1Plan", "derive_theorem1_plan",
           "goal_log_probability", "plan_log_probability",
           "plan_retransmissions", "uniform_retransmission_plan"]

#: Cap on one message's retransmission budget k_z: the planner never
#: buys more, the verifier's ANA206 flags more, and the service's
#: ``plan_retransmission`` op answers within it.  No bundled workload
#: needs more than 5 (``examples/reliability_tuning.py`` at SIL4).
MAX_RETRANSMISSIONS = 8


@dataclass(frozen=True)
class RetransmissionPlan:
    """The planner's output.

    Attributes:
        budgets: ``message -> k_z`` (messages absent or 0 are not
            selected for retransmission).
        achieved_log_probability: log of Theorem 1's product under the
            budgets.
        goal_log_probability: log(rho) the plan was built against.
        feasible: Whether the goal was met within the budget cap.
        total_cost: Sum of ``k_z * W_z / T_z`` (bandwidth-weighted).
    """

    budgets: Dict[str, int]
    achieved_log_probability: float
    goal_log_probability: float
    feasible: bool
    total_cost: float

    def budget_for(self, message: str) -> int:
        """k_z for a message (0 when unselected)."""
        return self.budgets.get(message, 0)

    def selected_messages(self) -> Dict[str, int]:
        """Messages with a non-zero retransmission budget."""
        return {m: k for m, k in self.budgets.items() if k > 0}

    @property
    def achieved_probability(self) -> float:
        """Theorem 1's product in linear space."""
        return math.exp(self.achieved_log_probability)


def goal_log_probability(rho: float) -> float:
    """log(rho), computed from gamma = 1 - rho where that is exact."""
    gamma = 1.0 - rho
    return math.log1p(-gamma) if gamma < 0.5 else math.log(rho)


def plan_log_probability(failure_probabilities: Mapping[str, float],
                         instances: Mapping[str, float],
                         budgets: Mapping[str, int]) -> float:
    """log of Theorem 1's product under ``budgets`` (absent = k 0).

    The one summation the planners' ``feasible`` and ANA204 read: near
    rho = 1 the last ulps of the sum decide the goal test, so every
    judge must add in the same (sorted) order.
    """
    return sum(
        log_message_success_probability(failure_probabilities[message],
                                        budgets.get(message, 0),
                                        instances[message])
        for message in sorted(failure_probabilities))


def _log_gain(p_z: float, k: int, instances: float) -> float:
    """Marginal log-probability gain of going from k to k+1 retries."""
    return (log_message_success_probability(p_z, k + 1, instances)
            - log_message_success_probability(p_z, k, instances))


def plan_retransmissions(
    failure_probabilities: Mapping[str, float],
    instances: Mapping[str, float],
    rho: float,
    bandwidth_cost: Optional[Mapping[str, float]] = None,
    max_budget: int = MAX_RETRANSMISSIONS,
) -> RetransmissionPlan:
    """Compute the differentiated retransmission budgets.

    Args:
        failure_probabilities: ``message -> p_z`` per-attempt failure
            probability.
        instances: ``message -> u / T_z`` instance count over the time
            unit (fractional allowed).
        rho: Reliability goal in (0, 1].
        bandwidth_cost: ``message -> cost`` of one retransmission
            (defaults to 1 per message: pure count minimization).
        max_budget: Per-message cap on k_z.

    Returns:
        A :class:`RetransmissionPlan`; ``feasible`` is ``False`` when
        even max budgets cannot reach rho (the plan then carries the
        best-achievable budgets).
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    missing = set(failure_probabilities) - set(instances)
    if missing:
        raise ValueError(f"no instance counts for: {sorted(missing)}")
    costs = dict(bandwidth_cost or {})
    goal_log = goal_log_probability(rho)

    budgets: Dict[str, int] = {m: 0 for m in failure_probabilities}
    # The greedy loop tracks the product incrementally; the plan reports
    # the recomputed sum, the one ANA204 judges.
    current_log = plan_log_probability(failure_probabilities, instances,
                                       budgets)
    total_cost = 0.0

    # Max-heap of (gain / cost) candidates; lazily re-pushed after pops
    # because each message's next gain depends on its current budget.
    heap: list = []
    for message, p_z in failure_probabilities.items():
        if p_z <= 0.0:
            continue
        gain = _log_gain(p_z, 0, instances[message])
        cost = max(costs.get(message, 1.0), 1e-12)
        if gain > 0:
            heapq.heappush(heap, (-gain / cost, message))

    while current_log < goal_log and heap:
        __, message = heapq.heappop(heap)
        k = budgets[message]
        if k >= max_budget:
            continue
        p_z = failure_probabilities[message]
        gain = _log_gain(p_z, k, instances[message])
        budgets[message] = k + 1
        current_log += gain
        total_cost += costs.get(message, 1.0)
        next_gain = _log_gain(p_z, k + 1, instances[message])
        cost = max(costs.get(message, 1.0), 1e-12)
        if next_gain > 0 and budgets[message] < max_budget:
            heapq.heappush(heap, (-next_gain / cost, message))

    achieved_log = plan_log_probability(failure_probabilities, instances,
                                        budgets)
    return RetransmissionPlan(
        budgets=budgets,
        achieved_log_probability=achieved_log,
        goal_log_probability=goal_log,
        feasible=achieved_log >= goal_log,
        total_cost=total_cost,
    )


def uniform_retransmission_plan(
    failure_probabilities: Mapping[str, float],
    instances: Mapping[str, float],
    rho: float,
    max_budget: int = MAX_RETRANSMISSIONS,
) -> RetransmissionPlan:
    """Ablation baseline: one k for every message (no differentiation).

    Finds the smallest uniform k meeting the goal -- the "retransmit
    everything equally" strawman the differentiated planner is compared
    against in the ablation benchmark.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    goal_log = goal_log_probability(rho)

    for k in range(max_budget + 1):
        budgets = {m: k for m in failure_probabilities}
        current_log = plan_log_probability(failure_probabilities,
                                           instances, budgets)
        if current_log >= goal_log:
            break
    return RetransmissionPlan(
        budgets=budgets,
        achieved_log_probability=current_log,
        goal_log_probability=goal_log,
        feasible=current_log >= goal_log,
        total_cost=float(k * len(budgets)),
    )


@dataclass(frozen=True)
class Theorem1Plan:
    """Theorem 1 solved for one packed workload on one geometry.

    Every message is planned by its worst chunk: ``W_z`` is that
    chunk's payload plus the geometry's ``frame_overhead_bits``, the
    bits the fault injector draws against.

    Attributes:
        plan: The budgets ``k_z``.
        failure_probabilities: ``message -> p_z = 1 - (1 - BER)^W_z``.
        instances: ``message -> u / T_z``.
        periods_ms: ``message -> T_z``.
        reliability_goal: rho.
        dynamic_slots_per_cycle: ``message -> `` retransmission frames
            of its worst chunk that fit one cycle's dynamic segments.
    """

    plan: RetransmissionPlan
    failure_probabilities: Dict[str, float]
    instances: Dict[str, float]
    periods_ms: Dict[str, float]
    reliability_goal: float
    dynamic_slots_per_cycle: Dict[str, int]

    def model_inputs(self) -> Dict[str, object]:
        """The Theorem-1 keyword inputs of
        :func:`repro.check.model_checker.check_hyperperiod_model`."""
        return dict(
            budgets=self.plan.budgets,
            failure_probabilities=self.failure_probabilities,
            instances=self.instances,
            reliability_goal=self.reliability_goal,
            retransmission_periods_ms=self.periods_ms,
            dynamic_retransmission_slots_per_cycle=(
                self.dynamic_slots_per_cycle),
        )


def derive_theorem1_plan(packing: "PackingResult",
                         params: "SegmentGeometry", ber: float,
                         reliability_goal: float,
                         time_unit_ms: float,
                         uniform: bool = False) -> Theorem1Plan:
    """Plan the retransmission budgets of a packed workload.

    The one derivation of Theorem 1's inputs: the CoEfficient policy,
    the mode-change controller, the static verifier and ``repro plan``
    all call it.  The budget applies per chunk, which is conservative
    for multi-chunk messages and exact for single-chunk ones.

    Args:
        packing: The packed workload.
        params: The geometry it runs on (frame overhead, dynamic
            segment).
        ber: Bit error rate the plan is sized against.
        reliability_goal: rho in (0, 1].
        time_unit_ms: Theorem 1's time unit u.
        uniform: Ablation: the smallest uniform k meeting rho instead
            of the differentiated plan.
    """
    failure: Dict[str, float] = {}
    instances: Dict[str, float] = {}
    cost: Dict[str, float] = {}
    periods: Dict[str, float] = {}
    dynamic: Dict[str, int] = {}
    for message in packing.messages:
        name = message.message_id
        payload = max(chunk.payload_bits for chunk in message.chunks)
        wire = payload + params.frame_overhead_bits
        failure[name] = frame_failure_probability(ber, wire)
        instances[name] = time_unit_ms / message.period_ms
        cost[name] = wire / message.period_ms
        periods[name] = message.period_ms
        dynamic[name] = dynamic_retransmission_capacity(params, payload)
    if uniform:
        plan = uniform_retransmission_plan(failure, instances,
                                           reliability_goal)
    else:
        plan = plan_retransmissions(failure, instances, reliability_goal,
                                    bandwidth_cost=cost)
    return Theorem1Plan(plan=plan, failure_probabilities=failure,
                        instances=instances, periods_ms=periods,
                        reliability_goal=reliability_goal,
                        dynamic_slots_per_cycle=dynamic)


def dynamic_retransmission_capacity(params: "SegmentGeometry",
                                    payload_bits: int) -> int:
    """Dynamic-segment retransmissions of a ``payload_bits`` chunk one
    cycle carries: one per channel, or none if the frame cannot fit.

    CoEfficient retransmits in the dynamic segment only in its reserved
    slot ID, the segment's first, which sends at most one frame per
    channel per cycle and has the whole segment to send it in.
    """
    if params.minislots_for_bits(payload_bits) > params.g_number_of_minislots:
        return 0
    return params.channel_count

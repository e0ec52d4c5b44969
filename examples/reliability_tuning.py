#!/usr/bin/env python3
"""Reliability-goal tuning: what a rho buys and what it costs.

Walks the IEC 61508 safety-integrity levels, computes the
differentiated retransmission plan for each (paper Theorem 1), and
contrasts it with the uniform everything-equally plan -- the ablation
that shows where CoEfficient's bandwidth savings come from.

Run:
    python examples/reliability_tuning.py
"""

from repro.core.retransmission import (
    plan_retransmissions,
    uniform_retransmission_plan,
)
from repro.faults.ber import BitErrorRateModel
from repro.faults.iec61508 import SafetyIntegrityLevel, reliability_goal_for
from repro.workloads.bbw import bbw_signals


def main() -> None:
    signals = bbw_signals()
    ber_model = BitErrorRateModel(ber_channel_a=1e-6)
    time_unit_ms = 60_000.0  # one minute of driving

    failure = {}
    instances = {}
    cost = {}
    for signal in signals:
        wire_bits = signal.size_bits + 64
        failure[signal.name] = ber_model.failure_probability("A", wire_bits)
        instances[signal.name] = time_unit_ms / signal.period_ms
        cost[signal.name] = wire_bits / signal.period_ms

    print("Brake-By-Wire over one minute at BER = 1e-6:")
    print(f"  per-attempt failure probabilities: "
          f"{min(failure.values()):.2e} .. {max(failure.values()):.2e}")
    print()
    print(f"{'SIL':>5s} {'rho':>22s} {'selected':>9s} "
          f"{'total k':>8s} {'uniform k_total':>16s} {'savings':>8s}")

    for level in SafetyIntegrityLevel:
        rho = reliability_goal_for(level, time_unit_ms=time_unit_ms)
        differentiated = plan_retransmissions(
            failure, instances, rho, bandwidth_cost=cost)
        uniform = uniform_retransmission_plan(failure, instances, rho)
        diff_total = sum(differentiated.budgets.values())
        uni_total = sum(uniform.budgets.values())
        savings = 1.0 - diff_total / uni_total if uni_total else 0.0
        print(f"{level.name:>5s} {rho:22.15f} "
              f"{len(differentiated.selected_messages()):9d} "
              f"{diff_total:8d} {uni_total:16d} {savings:8.1%}")

    print()
    rho = reliability_goal_for(SafetyIntegrityLevel.SIL4,
                               time_unit_ms=time_unit_ms)
    plan = plan_retransmissions(failure, instances, rho,
                                bandwidth_cost=cost)
    print(f"SIL4 differentiated budgets (k_z > 0 only):")
    for message, budget in sorted(plan.selected_messages().items()):
        signal = signals[message]
        print(f"  {message}: k={budget}  "
              f"({signal.size_bits} bits every {signal.period_ms:g} ms)")
    print()
    print(f"achieved probability {plan.achieved_probability:.15f} "
          f">= goal {rho:.15f}: {plan.feasible}")
    print()
    print("Differentiation selects the large, frequent messages -- the")
    print("ones whose failure actually threatens the goal -- and leaves")
    print("the rest alone; uniform plans pay for every message equally.")


if __name__ == "__main__":
    main()

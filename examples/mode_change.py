#!/usr/bin/env python3
"""Online admission control: growing a running configuration safely.

A vehicle feature activates and wants a new message stream on the bus.
The :class:`ModeChangeController` answers "does it fit?" with the full
machinery: re-packing, schedule rebuild, analytical deadline validation,
Theorem-1 re-planning, and a slack-supply check for the enlarged plan --
transactionally, so a rejection leaves the running configuration
untouched.

This example starts from the ACC case study, admits diagnostic streams
one by one until the cluster refuses, shows *why* it refused, then
retires a stream and admits the previously rejected one.

Run:
    python examples/mode_change.py
"""

from repro.core.mode_change import ModeChangeController
from repro.experiments.figures import case_study_params
from repro.faults.ber import BitErrorRateModel
from repro.protocol.signal import Signal
from repro.workloads.acc import acc_signals


def diagnostic_stream(index: int) -> Signal:
    """A hypothetical diagnostic stream wanting onto the bus."""
    return Signal(
        name=f"diag-{index:02d}",
        ecu=5 + index,
        period_ms=8.0,
        offset_ms=0.3,
        deadline_ms=8.0,
        size_bits=1100,
    )


def main() -> None:
    params = case_study_params("acc", minislots=50)
    controller = ModeChangeController(
        params,
        acc_signals(),
        ber_model=BitErrorRateModel(ber_channel_a=1e-7),
        reliability_goal=1 - 1e-4,
        time_unit_ms=1000.0,
    )
    print(f"baseline: {len(controller.signals)} ACC signals admitted "
          f"({controller.current.reason})")

    rejected_index = None
    for index in range(40):
        decision = controller.try_admit(diagnostic_stream(index))
        status = "admitted" if decision.admitted else "REJECTED"
        if not decision.admitted:
            print(f"  diag-{index:02d}: {status} -- {decision.reason}")
            rejected_index = index
            break
        if index % 5 == 0:
            print(f"  diag-{index:02d}: {status} "
                  f"(now {len(controller.signals)} signals)")

    if rejected_index is None:
        print("cluster absorbed every stream (increase the flood?)")
        return

    victim = controller.signals.signals[-1].name
    print(f"\nretiring {victim} to make room...")
    controller.retire(victim)
    retry = controller.try_admit(diagnostic_stream(rejected_index))
    print(f"  diag-{rejected_index:02d} retry: "
          f"{'admitted' if retry.admitted else 'still rejected'}")
    print(f"\nfinal configuration: {len(controller.signals)} signals, "
          f"{len(controller.history)} admission decisions recorded")
    plan = controller.current.plan
    if plan:
        print(f"retransmission plan: {len(plan.selected_messages())} "
              f"messages selected, achieved "
              f"{plan.achieved_probability:.9f}")


if __name__ == "__main__":
    main()

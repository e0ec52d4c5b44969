#!/usr/bin/env python3
"""Building a cluster by hand with the low-level API.

The other examples drive everything through ``run_experiment``; this one
assembles the pieces explicitly -- signals, packing, schedule table,
policy, fault injector, cluster -- the way a downstream user embedding
the library would, and pokes at the intermediate artifacts (packed
messages, retransmission plan, idle-slot structure, policy counters).

Run:
    python examples/custom_cluster.py
"""

from repro.analysis.slack_table import IdleSlotTable
from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.faults.injector import TransientFaultInjector
from repro.protocol.channel import Channel
from repro.protocol.cluster import Cluster
from repro.flexray.params import FlexRayParams
from repro.protocol.signal import Signal, SignalSet
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream


def main() -> None:
    # --- 1. Define the cluster geometry explicitly. -------------------
    params = FlexRayParams(
        gd_macrotick_us=1.0,
        gd_cycle_mt=2000,            # 2 ms cycle
        gd_static_slot_mt=50,        # 50 us slots -> 436-bit payloads
        g_number_of_static_slots=16,
        gd_minislot_mt=8,
        g_number_of_minislots=100,
        channel_count=2,
    )
    print("cluster:", params.describe())

    # --- 2. A hand-written workload: a steering subsystem. ------------
    signals = SignalSet([
        Signal(name="wheel-angle", ecu=0, period_ms=2.0, offset_ms=0.2,
               deadline_ms=2.0, size_bits=128),
        Signal(name="torque-cmd", ecu=1, period_ms=2.0, offset_ms=0.4,
               deadline_ms=1.0, size_bits=96),
        Signal(name="motor-status", ecu=1, period_ms=4.0, offset_ms=0.6,
               deadline_ms=4.0, size_bits=256),
        Signal(name="diag-dump", ecu=2, period_ms=20.0, offset_ms=1.0,
               deadline_ms=20.0, size_bits=1600, priority=5,
               aperiodic=True),
        Signal(name="driver-event", ecu=3, period_ms=10.0, offset_ms=0.5,
               deadline_ms=10.0, size_bits=64, priority=1,
               aperiodic=True),
    ], name="steering")

    # --- 3. Pack and inspect the schedule. -----------------------------
    packing = pack_signals(signals, params)
    print("\npacked messages:")
    for message in packing.messages:
        kind = "dynamic" if message.aperiodic else "static"
        print(f"  {message.message_id:16s} {kind:8s} "
              f"period {message.period_ms:5.1f} ms  "
              f"{message.payload_bits:5d} bits x{message.chunk_count}")

    # --- 4. Policy, faults, cluster. ------------------------------------
    rng = RngStream(seed=99, scope="custom-cluster")
    ber_model = BitErrorRateModel(ber_channel_a=1e-6)
    policy = CoEfficientPolicy(packing, ber_model,
                               reliability_goal=1 - 1e-6,
                               time_unit_ms=1000.0)
    cluster = Cluster(
        params=params,
        policy=policy,
        sources=packing.build_sources(rng),
        corrupts=TransientFaultInjector(ber_model, rng),
    )
    cluster.run_for_ms(200.0)

    # --- 5. Inspect what the offline planner decided. -------------------
    print("\nretransmission plan (k_z > 0):",
          policy.plan.selected_messages() or "none needed")
    idle = IdleSlotTable(policy.table, [Channel.A, Channel.B])
    print(f"structural static utilization: "
          f"{idle.structural_utilization():.2%} "
          f"(the rest is the slack pool)")
    print(f"slack planner stats: {policy.slack_planner.stats}")

    # --- 6. Results. -----------------------------------------------------
    metrics = cluster.metrics()
    print(f"\nafter 200 ms: delivered "
          f"{metrics.delivered_instances}/{metrics.produced_instances}, "
          f"miss ratio {metrics.deadline_miss_ratio:.4f}")
    print(f"policy counters: {policy.counters}")


if __name__ == "__main__":
    main()

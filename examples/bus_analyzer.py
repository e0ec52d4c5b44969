#!/usr/bin/env python3
"""Playing bus analyzer: traces, per-message statistics, fault forensics.

The paper's testbed attaches "a bus analysis tool [to] record the
information of message transmission"; this example does the same with
the library's trace tooling over two fault scenarios:

1. a clean run, exported to CSV exactly as an analyzer would log it;
2. a babbling-idiot node with and without its bus guardian, showing the
   containment in the per-message statistics.

Run:
    python examples/bus_analyzer.py
"""

import io
import pathlib

from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.flexray.bus_guardian import BabblingIdiotScenario
from repro.protocol.cluster import Cluster
from repro.flexray.params import paper_dynamic_preset
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream
from repro.sim.trace_io import export_csv, per_message_statistics
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals


def build_cluster(params, packing, corrupts=None):
    policy = CoEfficientPolicy(
        packing, BitErrorRateModel(ber_channel_a=1e-7),
        reliability_goal=1 - 1e-4)
    kwargs = {"corrupts": corrupts} if corrupts else {}
    return Cluster(
        params=params, policy=policy,
        sources=packing.build_sources(RngStream(11, "analyzer")),
        **kwargs)


def print_stats(title, trace, limit=8):
    print(f"\n{title}")
    print(f"  {'message':14s} {'inst':>5s} {'deliv':>6s} {'miss':>5s} "
          f"{'attempts':>9s} {'retx':>5s} {'mean lat (MT)':>14s}")
    for stats in per_message_statistics(trace)[:limit]:
        print(f"  {stats.message_id:14s} {stats.instances:5d} "
              f"{stats.delivered:6d} {stats.missed:5d} "
              f"{stats.attempts:9d} {stats.retransmissions:5d} "
              f"{stats.mean_latency_mt:14.1f}")


def main() -> None:
    params = paper_dynamic_preset(50)
    workload = synthetic_signals(10, max_size_bits=216).merged_with(
        sae_aperiodic_signals(count=10))
    packing = pack_signals(workload, params)

    # --- 1. Clean run, exported like an analyzer log. ------------------
    cluster = build_cluster(params, packing)
    cluster.run_for_ms(200.0)
    buffer = io.StringIO()
    rows = export_csv(cluster.trace, buffer)
    log_path = pathlib.Path(__file__).parent / "bus_trace.csv"
    log_path.write_text(buffer.getvalue())
    print(f"clean run: {rows} transmission attempts logged to {log_path}")
    print_stats("per-message statistics (clean):", cluster.trace)

    # --- 2. Babbling idiot, guardian off vs on. ------------------------
    for guardian in (False, True):
        policy_probe = CoEfficientPolicy(
            packing, BitErrorRateModel(ber_channel_a=1e-7),
            reliability_goal=1 - 1e-4)
        # Build a table just for slot-ownership knowledge.
        from repro.protocol.schedule import (
            ChannelStrategy, build_dual_schedule)
        table = build_dual_schedule(packing.static_frames(), params,
                                    ChannelStrategy.DISTRIBUTE)
        scenario = BabblingIdiotScenario(
            params, table, faulty_node=0, start_mt=0, guardian=guardian)
        cluster = build_cluster(params, packing, corrupts=scenario)
        cluster.run_for_ms(200.0)
        trace = cluster.trace
        label = "with guardian" if guardian else "WITHOUT guardian"
        delivered = trace.delivered_count()
        produced = trace.instance_count()
        print(f"\nbabbling node 0 {label}: delivered {delivered}/{produced} "
              f"({scenario.collisions} collisions)")
        if guardian:
            print_stats("per-message statistics (contained babble):",
                        trace, limit=6)
    print("\nThe guardian turns a cluster-killing fault into the loss of "
          "one node's own traffic.")


if __name__ == "__main__":
    main()

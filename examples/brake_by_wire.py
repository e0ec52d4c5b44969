#!/usr/bin/env python3
"""Brake-By-Wire case study (paper Table II).

Runs the BBW message set -- 20 periodic messages with 1 ms and 8 ms
periods, regenerated verbatim from the paper -- against every scheduler
in the registry, in both measurement modes:

1. fixed-horizon mode: latency / utilization / miss ratio over 500 ms;
2. completion mode: the paper's "running time" -- simulated time until
   every instance (and every planned redundancy copy) is done.

Run:
    python examples/brake_by_wire.py
"""

from repro.experiments.figures import case_study_params
from repro.experiments.runner import SCHEDULERS, run_experiment
from repro.workloads.bbw import bbw_signals
from repro.workloads.sae import sae_aperiodic_signals


def main() -> None:
    signals = bbw_signals()
    params = case_study_params("bbw", minislots=50)
    print("Brake-By-Wire message set (paper Table II):")
    print(f"  {signals.summary()}")
    print(f"  derived cluster: {params.g_number_of_static_slots} static "
          f"slots x {params.gd_static_slot_mt} MT, "
          f"{params.g_number_of_minislots} minislots, "
          f"cycle {params.cycle_ms:.1f} ms")
    print()

    print("Fixed-horizon comparison (500 ms, BER = 1e-7):")
    header = (f"  {'scheduler':18s} {'util':>7s} {'static ms':>10s} "
              f"{'dynamic ms':>11s} {'miss':>7s}")
    print(header)
    for scheduler in SCHEDULERS:
        result = run_experiment(
            params=params,
            scheduler=scheduler,
            periodic=signals,
            aperiodic=sae_aperiodic_signals(),
            ber=1e-7,
            seed=42,
            duration_ms=500.0,
            reliability_goal=1 - 1e-4,
        )
        metrics = result.metrics
        print(f"  {scheduler:18s} "
              f"{metrics.bandwidth_utilization:7.4f} "
              f"{metrics.static_latency.mean_ms:10.3f} "
              f"{metrics.dynamic_latency.mean_ms:11.3f} "
              f"{metrics.deadline_miss_ratio:7.4f}")
    print()

    print("Completion mode (paper's running time; 10 instances/message):")
    for scheduler in ("coefficient", "fspec"):
        result = run_experiment(
            params=params,
            scheduler=scheduler,
            periodic=signals,
            aperiodic=sae_aperiodic_signals(),
            ber=1e-7,
            seed=42,
            duration_ms=None,
            instance_limit=10,
            reliability_goal=1 - 1e-4,
            drop_expired_dynamic=False,
        )
        metrics = result.metrics
        print(f"  {scheduler:14s} completes in {result.completion_ms:8.1f} ms "
              f"({metrics.delivered_instances}/{metrics.produced_instances}"
              f" instances delivered)")
    print()
    print("FSPEC's blanket redundancy copies drain through one channel's")
    print("dynamic segment, so its completion time is a multiple of")
    print("CoEfficient's -- the Figure 1 result.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Quickstart: run CoEfficient against FSPEC on a synthetic workload.

This is the five-minute tour: build the paper's dynamic-study cluster,
generate a synthetic periodic workload plus the SAE-style aperiodic set,
run both schedulers over half a second of bus time, and print the four
metrics the paper evaluates.

Run:
    python examples/quickstart.py
"""

from repro.experiments.runner import run_experiment
from repro.flexray.params import paper_dynamic_preset
from repro.workloads.sae import sae_aperiodic_signals
from repro.workloads.synthetic import synthetic_signals


def main() -> None:
    # The paper's dynamic-study cluster: 0.75 ms static segment, 100
    # minislots of dynamic segment, dual channel, 10 Mbit/s.
    params = paper_dynamic_preset(minislots=100)
    print("Cluster configuration:")
    for key, value in params.describe().items():
        print(f"  {key:28s} {value}")
    print()

    # 20 synthetic time-triggered messages (periods 5-50 ms) and 30
    # event-triggered messages (50 ms deadline), as in Section IV-A.
    periodic = synthetic_signals(20, max_size_bits=216)
    aperiodic = sae_aperiodic_signals(count=30, min_size_bits=200,
                                      max_size_bits=1200)
    print(f"Workload: {periodic.summary()}")
    print(f"          {aperiodic.summary()}")
    print()

    header = (f"{'scheduler':14s} {'util':>7s} {'effcy':>7s} "
              f"{'static ms':>10s} {'dynamic ms':>11s} {'miss':>7s}")
    print(header)
    print("-" * len(header))
    for scheduler in ("coefficient", "fspec"):
        result = run_experiment(
            params=params,
            scheduler=scheduler,
            periodic=periodic,
            aperiodic=aperiodic,
            ber=1e-7,
            seed=42,
            duration_ms=500.0,
            reliability_goal=1 - 1e-4,
        )
        metrics = result.metrics
        print(f"{scheduler:14s} "
              f"{metrics.bandwidth_utilization:7.4f} "
              f"{metrics.efficiency:7.4f} "
              f"{metrics.static_latency.mean_ms:10.3f} "
              f"{metrics.dynamic_latency.mean_ms:11.3f} "
              f"{metrics.deadline_miss_ratio:7.4f}")
    print()
    print("CoEfficient should show lower latencies, a lower miss ratio "
          "and higher efficiency: the cooperative dual-channel slack "
          "stealing at work.")


if __name__ == "__main__":
    main()

"""Benchmark the admission service end to end; emit ``BENCH_service.json``.

Runs ``repro serve`` in-process (real sockets on an ephemeral port) and
drives the deterministic load generator through three scenarios:

- ``steady``   -- the default SAE-style stream,
- ``bursty``   -- tighter inter-arrivals (more coalescing pressure),
- ``churn``    -- 30% of accepted requests released again.

Each scenario reports client-side latency percentiles, throughput and
the acceptance ratio next to the server's own counters (batches, mean
batch size, reconcile runs).  The run *fails* (exit 1) if any service
invariant breaks: a dropped response, a protocol error, or an
incremental-vs-recomputed reconciliation divergence.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        [--requests 1000] [--workload bbw] [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
from typing import Dict

from repro.service.config import SERVICE_WORKLOADS, load_service_setup
from repro.service.loadgen import LoadgenSpec, run_loadgen
from repro.service.server import AdmissionService


def scenarios(requests: int) -> Dict[str, LoadgenSpec]:
    return {
        "steady": LoadgenSpec(requests=requests, seed=7),
        "bursty": LoadgenSpec(requests=requests, seed=11,
                              mean_interarrival_ticks=2.0),
        "churn": LoadgenSpec(requests=requests, seed=13,
                             release_fraction=0.3),
    }


async def run_scenario(setup, spec: LoadgenSpec,
                       concurrency: int, connections: int):
    service = AdmissionService(setup, reconcile_every=32)
    host, port = await service.start(port=0)
    report = await run_loadgen(host, port, spec,
                               concurrency=concurrency,
                               connections=connections)
    await service.stop()
    return service, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Admission-service end-to-end benchmark")
    parser.add_argument("--requests", type=int, default=1000,
                        help="requests per scenario (default 1000)")
    parser.add_argument("--workload", default="bbw",
                        choices=SERVICE_WORKLOADS)
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument("--out", default="BENCH_service.json")
    args = parser.parse_args(argv)

    setup = load_service_setup(args.workload)
    results: Dict[str, Dict[str, object]] = {}
    failures = []
    for name, spec in scenarios(args.requests).items():
        service, report = asyncio.run(run_scenario(
            setup, spec, args.concurrency, args.connections))
        counters = service.counters
        batches = counters.get("service.batches", 0)
        batched = counters.get("service.batch.requests", 0)
        row = dict(report.to_row())
        row.update({
            "batches": batches,
            "mean_batch_size": round(batched / batches, 3) if batches
            else 0.0,
            "reconcile_runs": counters.get("service.reconcile.runs", 0),
            "reconcile_divergence": counters.get(
                "service.reconcile.divergence", 0),
            "protocol_errors": counters.get("service.protocol_errors", 0),
        })
        results[name] = row
        print(f"{name:>8s}: {row['throughput_rps']:>8.1f} rps  "
              f"p50 {row['p50_ms']:.2f} ms  p99 {row['p99_ms']:.2f} ms  "
              f"accept {row['acceptance_ratio']:.3f}  "
              f"batch {row['mean_batch_size']:.2f}",
              file=sys.stderr)
        if report.dropped:
            failures.append(f"{name}: {report.dropped} dropped responses")
        if row["protocol_errors"]:
            failures.append(f"{name}: {row['protocol_errors']} protocol "
                            f"errors")
        if row["reconcile_divergence"]:
            failures.append(f"{name}: reconcile divergence "
                            f"{row['reconcile_divergence']}")
        if report.acceptance_ratio <= 0.0:
            failures.append(f"{name}: zero acceptance ratio")

    payload = {
        "benchmark": "service",
        "workload": args.workload,
        "requests_per_scenario": args.requests,
        "concurrency": args.concurrency,
        "connections": args.connections,
        "python": platform.python_version(),
        "scenarios": results,
        "failures": failures,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)
    for failure in failures:
        print(f"INVARIANT VIOLATION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

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

A second section sweeps ``repro serve --shards N``: the same steady
stream driven once per shard count (1 = the plain in-process service,
>= 2 = the distrib router in front of shard processes), recording
requests/sec, the speedup over the single-shard baseline and the
accepted / rejected / overload counts.  The sweep runs at high client
concurrency on purpose, so passes coalesce many connections' admits.
A sweep whose shard counts disagree on those verdict counts did
different work and compares nothing: the run then fails too.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py \
        [--requests 1000] [--workload bbw] [--shards 1 2] \
        [--out BENCH_service.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
from typing import Dict, List

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


async def run_shard_point(workload: str, shards: int, spec: LoadgenSpec,
                          concurrency: int, connections: int):
    """One sweep point: loadgen against ``shards`` service processes.

    Returns ``(report, counters)`` where counters are the router's for
    sharded points and the service's for the in-process baseline.
    """
    if shards == 1:
        setup = load_service_setup(workload)
        service = AdmissionService(setup)
        host, port = await service.start(port=0)
        report = await run_loadgen(host, port, spec,
                                   concurrency=concurrency,
                                   connections=connections)
        await service.stop()
        return report, dict(service.counters)
    from repro.distrib.router import ShardRouter

    setup_kwargs = dict(workload=workload)
    setup = load_service_setup(**setup_kwargs)
    router = ShardRouter(setup, setup_kwargs, shards,
                         health_interval_s=2.0)
    host, port = await router.start(port=0)
    report = await run_loadgen(host, port, spec,
                               concurrency=concurrency,
                               connections=connections)
    await router.stop()
    return report, dict(router.counters)


def run_shard_sweep(workload: str, shard_counts: List[int],
                    requests: int, concurrency: int,
                    connections: int) -> Dict[str, object]:
    spec = LoadgenSpec(requests=requests, seed=7)
    points: Dict[str, Dict[str, object]] = {}
    baseline_rps = None
    for shards in shard_counts:
        report, counters = asyncio.run(run_shard_point(
            workload, shards, spec, concurrency, connections))
        rps = report.throughput_rps
        if shards == 1:
            baseline_rps = rps
        speedup = round(rps / baseline_rps, 3) if baseline_rps else None
        points[str(shards)] = {
            "throughput_rps": rps,
            "p50_ms": report.latency_ms.get("p50", 0.0),
            "p99_ms": report.latency_ms.get("p99", 0.0),
            "accepted": report.accepted,
            "rejected": report.rejected,
            "overload": report.overloaded,
            "errors": report.errors,
            "dropped": report.dropped,
            "speedup": speedup,
            "router_batches": counters.get("router.batches", 0),
            "router_batched_admits": counters.get(
                "router.batched_admits", 0),
        }
        print(f"  shards={shards}: {rps:>8.1f} rps  "
              f"speedup {speedup if speedup is not None else '-'}",
              file=sys.stderr)
    return {
        "requests": requests,
        "concurrency": concurrency,
        "connections": connections,
        "cpu_count": os.cpu_count(),
        "counts": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Admission-service end-to-end benchmark")
    parser.add_argument("--requests", type=int, default=1000,
                        help="requests per scenario (default 1000)")
    parser.add_argument("--workload", default="bbw",
                        choices=SERVICE_WORKLOADS)
    parser.add_argument("--concurrency", type=int, default=64)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2],
                        help="shard counts to sweep (default: 1 2; "
                             "pass --shards 1 to skip the router)")
    parser.add_argument("--shard-requests", type=int, default=5000,
                        help="requests per sweep point (default 5000)")
    parser.add_argument("--shard-concurrency", type=int, default=512,
                        help="loadgen concurrency for the sweep "
                             "(default 512: batching needs pressure)")
    parser.add_argument("--shard-connections", type=int, default=8)
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

    print("sharding sweep:", file=sys.stderr)
    sharding = run_shard_sweep(
        args.workload, args.shards, args.shard_requests,
        args.shard_concurrency, args.shard_connections)
    verdicts = {}
    for shards, point in sharding["counts"].items():
        if point["errors"] or point["dropped"]:
            failures.append(
                f"shards={shards}: {point['errors']} errors, "
                f"{point['dropped']} dropped")
        verdicts[shards] = {key: point[key]
                            for key in ("accepted", "rejected", "overload")}
    if len({tuple(counts.values()) for counts in verdicts.values()}) > 1:
        failures.append(f"verdict counts differ between shard counts: "
                        f"{verdicts}")

    payload = {
        "benchmark": "service",
        "workload": args.workload,
        "requests_per_scenario": args.requests,
        "concurrency": args.concurrency,
        "connections": args.connections,
        "python": platform.python_version(),
        "scenarios": results,
        "sharding": sharding,
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

"""Benchmark the result store + web explorer; emit ``BENCH_results.json``.

Measures the paths the store puts on every campaign's critical path:

- ``ingest``    -- ``record_campaign`` over synthetic campaigns (rows/s),
- ``reingest``  -- the idempotent no-op second pass (must be cheaper),
- ``query``     -- paginated campaign/metric/diff queries (queries/s),
- ``web``       -- HTTP GETs against a live ``ResultsWebService``,
  split into cold fetches and ``If-None-Match`` 304 replays.

The run *fails* (exit 1) if any contract breaks: a re-ingest that
changes row counts, a query that pages non-deterministically, a
response body that is not byte-stable, or a 304 replay that carries a
body.

Usage::

    PYTHONPATH=src python benchmarks/bench_results.py \
        [--campaigns 50] [--seeds 16] [--out BENCH_results.json]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List

from repro.experiments.campaign import CampaignResult, MetricSummary
from repro.results.store import ResultStore
from repro.results.web import ResultsWebService

METRIC_NAMES = ("running_time_ms", "bandwidth_utilization", "efficiency",
                "static_latency_ms", "dynamic_latency_ms",
                "deadline_miss_ratio")


def synthetic_campaign(index: int, seeds: int) -> CampaignResult:
    """A deterministic campaign payload; no simulation involved."""
    summaries = {
        name: MetricSummary(
            name=name, samples=seeds,
            mean=(index + 1) * 0.25 + position,
            stdev=0.125 * (position + 1),
            ci_low=(index + 1) * 0.25 + position - 0.5,
            ci_high=(index + 1) * 0.25 + position + 0.5,
            minimum=float(index), maximum=float(index + position + 1))
        for position, name in enumerate(METRIC_NAMES)
    }
    return CampaignResult(scheduler="coefficient",
                          seeds=list(range(seeds)),
                          results=[], summaries=summaries)


def bench_ingest(store: ResultStore, campaigns: List[CampaignResult],
                 kwargs_for) -> Dict[str, object]:
    start = time.perf_counter()
    ids = [store.record_campaign(campaign, kwargs_for(index),
                                 workload=f"bench-{index % 4}")
           for index, campaign in enumerate(campaigns)]
    elapsed = time.perf_counter() - start
    counts = store.counts()

    start = time.perf_counter()
    again = [store.record_campaign(campaign, kwargs_for(index),
                                   workload=f"bench-{index % 4}")
             for index, campaign in enumerate(campaigns)]
    reingest = time.perf_counter() - start
    assert again == ids, "re-ingest changed campaign identity"
    assert store.counts() == counts, "re-ingest changed row counts"
    return {
        "campaigns": len(campaigns),
        "ingest_s": round(elapsed, 4),
        "ingest_per_s": round(len(campaigns) / elapsed, 1),
        "reingest_s": round(reingest, 4),
        "reingest_per_s": round(len(campaigns) / reingest, 1),
    }


def bench_query(store: ResultStore, repeats: int) -> Dict[str, object]:
    start = time.perf_counter()
    queries = 0
    for _ in range(repeats):
        page, total = store.campaigns(limit=10)
        again, _ = store.campaigns(limit=10)
        assert again == page, "pagination is not deterministic"
        store.campaigns(scheduler="coefficient", workload="bench-1",
                        limit=10, offset=10)
        store.metric_rows("efficiency", min_value=0.5, limit=25)
        store.digest_diff(limit=25)
        queries += 5
    elapsed = time.perf_counter() - start
    return {"queries": queries, "query_s": round(elapsed, 4),
            "queries_per_s": round(queries / elapsed, 1)}


async def bench_web(store: ResultStore, repeats: int) -> Dict[str, object]:
    service = ResultsWebService(store)
    host, port = await service.start(port=0)

    async def fetch(path: str, etag: str = "") -> tuple:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            extra = f"If-None-Match: {etag}\r\n" if etag else ""
            writer.write((f"GET {path} HTTP/1.1\r\nHost: x\r\n{extra}"
                          "Connection: close\r\n\r\n").encode())
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        found = ""
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"etag: "):
                found = line[6:].decode()
        return status, found, body

    paths = ["/", "/campaigns", "/campaigns?limit=10&offset=10",
             "/metrics/efficiency", "/digests/diff"]
    start = time.perf_counter()
    etags = {}
    for _ in range(repeats):
        for path in paths:
            status, etag, body = await fetch(path)
            assert status == 200 and etag, (status, path)
            if path in etags:
                assert etags[path] == (etag, body), \
                    f"{path}: body not byte-stable"
            etags[path] = (etag, body)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(repeats):
        for path in paths:
            status, _, body = await fetch(path, etag=etags[path][0])
            assert status == 304, (status, path)
            assert body == b"", f"{path}: 304 carried a body"
    replay = time.perf_counter() - start
    await service.stop()
    requests = repeats * len(paths)
    return {
        "requests": requests,
        "cold_s": round(cold, 4),
        "cold_per_s": round(requests / cold, 1),
        "not_modified_s": round(replay, 4),
        "not_modified_per_s": round(requests / replay, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Result store + web explorer benchmark")
    parser.add_argument("--campaigns", type=int, default=50)
    parser.add_argument("--seeds", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--out", default="BENCH_results.json")
    args = parser.parse_args(argv)

    campaigns = [synthetic_campaign(index, args.seeds)
                 for index in range(args.campaigns)]

    def kwargs_for(index: int) -> Dict[str, object]:
        return {"ber": 10.0 ** -(4 + index % 3),
                "duration_ms": 100.0 * (1 + index % 2)}

    with tempfile.TemporaryDirectory() as scratch:
        store = ResultStore(os.path.join(scratch, "bench.db"))
        try:
            sections = {
                "ingest": bench_ingest(store, campaigns, kwargs_for),
                "query": bench_query(store, args.repeats),
                "web": asyncio.run(bench_web(store, args.repeats)),
            }
            table_counts = store.counts()
        finally:
            store.close()

    payload = {
        "benchmark": "results",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "tables": table_counts,
        "sections": sections,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(json.dumps(payload["sections"], indent=2, sort_keys=True))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

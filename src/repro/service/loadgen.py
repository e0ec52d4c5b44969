"""Deterministic load generator for the admission service.

``repro loadgen`` produces a seeded Poisson stream of SAE-style
admission requests (50 ms relative deadlines, sizes drawn
from the SAE Class C range), fires them at a running ``repro serve``
with bounded concurrency, and reports latency percentiles, throughput
and the acceptance ratio.

Determinism: the request *stream* is a pure function of the spec (all
draws go through :class:`repro.sim.rng.RngStream`), so two loadgen runs
against identical servers offer identical work.  The measured latencies
are wall clock, of course -- only the offered load is reproducible.

The report's invariant check is the service's no-drop guarantee: every
request must come back with an ``accepted`` / ``rejected`` /
``overload`` / ``error`` reply -- ``dropped`` must be zero.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.client import ServiceClient
from repro.sim.rng import RngStream

__all__ = ["AdmitRequestSpec", "LoadgenReport", "LoadgenSpec",
           "generate_requests", "percentile", "run_loadgen"]

#: Channel labels the stream spreads requests over.
CHANNELS: Tuple[str, ...] = ("A", "B")

#: Uniform execution demand range of one request, in ticks.
EXECUTION_MIN = 1
EXECUTION_MAX = 4

#: Relative hard deadline of every request: 500 ticks = the SAE 50 ms
#: at 0.1 ms ticks.
DEADLINE_TICKS = 500


@dataclass(frozen=True)
class LoadgenSpec:
    """Parameters of one deterministic request stream.

    Requests spread over :data:`CHANNELS`, demand
    :data:`EXECUTION_MIN`..:data:`EXECUTION_MAX` ticks and carry the
    relative deadline :data:`DEADLINE_TICKS`; the stream starts at
    logical tick 0.

    Attributes:
        requests: Number of admit requests.
        seed: Root seed of every draw.
        mean_interarrival_ticks: Poisson process mean inter-arrival
            time (ticks of *logical* service time).
        release_fraction: Probability an accepted request is followed
            by a release (models retransmissions that turned out to be
            unneeded, reclaiming their slack).
    """

    requests: int
    seed: int = 7
    mean_interarrival_ticks: float = 8.0
    release_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.mean_interarrival_ticks <= 0:
            raise ValueError("mean_interarrival_ticks must be positive")
        if not 0.0 <= self.release_fraction <= 1.0:
            raise ValueError("release_fraction must be in [0, 1]")


@dataclass(frozen=True)
class AdmitRequestSpec:
    """One generated admission request (plus its follow-up release)."""

    name: str
    channel: str
    arrival: int
    execution: int
    deadline: int
    release_after: bool


def generate_requests(spec: LoadgenSpec) -> List[AdmitRequestSpec]:
    """Expand a spec into its deterministic request stream."""
    rng = RngStream(spec.seed, scope=f"loadgen/{spec.requests}")
    arrivals = rng.split("arrivals")
    sizes = rng.split("sizes")
    lanes = rng.split("channels")
    releases = rng.split("releases")
    clock = 0.0
    stream: List[AdmitRequestSpec] = []
    for index in range(spec.requests):
        clock += arrivals.exponential(spec.mean_interarrival_ticks)
        execution = sizes.randint(EXECUTION_MIN, EXECUTION_MAX)
        channel = str(lanes.choice(list(CHANNELS)))
        release_after = (spec.release_fraction > 0.0
                         and releases.bernoulli(spec.release_fraction))
        stream.append(AdmitRequestSpec(
            name=f"lg-{index + 1:06d}",
            channel=channel,
            arrival=int(clock),
            execution=execution,
            deadline=DEADLINE_TICKS,
            release_after=release_after,
        ))
    return stream


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LoadgenReport:
    """Aggregate outcome of one loadgen run."""

    requests: int
    replies: Dict[str, int]  # status -> count
    dropped: int             # requests that never got any reply
    wall_s: float
    latency_ms: Dict[str, float]  # p50/p90/p99/max/mean
    releases_sent: int
    releases_confirmed: int

    @property
    def accepted(self) -> int:
        return self.replies.get("accepted", 0)

    @property
    def rejected(self) -> int:
        return self.replies.get("rejected", 0)

    @property
    def overloaded(self) -> int:
        return self.replies.get("overload", 0)

    @property
    def errors(self) -> int:
        return self.replies.get("error", 0)

    @property
    def acceptance_ratio(self) -> float:
        """accepted / (accepted + rejected); NaN-free (0 on no decisions)."""
        decided = self.accepted + self.rejected
        return self.accepted / decided if decided else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def to_row(self) -> Dict[str, object]:
        """Flat summary row for tables / JSON export."""
        return {
            "requests": self.requests,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "overload": self.overloaded,
            "errors": self.errors,
            "dropped": self.dropped,
            "acceptance_ratio": round(self.acceptance_ratio, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.latency_ms.get("p50", 0.0), 3),
            "p90_ms": round(self.latency_ms.get("p90", 0.0), 3),
            "p99_ms": round(self.latency_ms.get("p99", 0.0), 3),
            "max_ms": round(self.latency_ms.get("max", 0.0), 3),
            "wall_s": round(self.wall_s, 3),
        }


async def run_loadgen(host: str, port: int, spec: LoadgenSpec,
                      concurrency: int = 64,
                      connections: int = 4) -> LoadgenReport:
    """Fire a spec's request stream at a running service.

    Args:
        host/port: The service endpoint.
        spec: The deterministic stream to offer.
        concurrency: Max requests in flight across all connections.
        connections: TCP connections to spread the stream over
            (round-robin), exercising the server's cross-connection
            batching.

    Returns:
        The aggregated :class:`LoadgenReport`.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    if connections < 1:
        raise ValueError("connections must be >= 1")
    stream = generate_requests(spec)
    clients = [await ServiceClient.connect(host, port)
               for __ in range(min(connections, len(stream)))]
    semaphore = asyncio.Semaphore(concurrency)
    latencies: List[float] = []
    replies: Dict[str, int] = {}
    dropped = 0
    releases_sent = 0
    releases_confirmed = 0

    async def fire(index: int, item: AdmitRequestSpec) -> None:
        nonlocal dropped, releases_sent, releases_confirmed
        client = clients[index % len(clients)]
        async with semaphore:
            begin = time.perf_counter()
            try:
                response = await client.admit(
                    item.channel, item.arrival, item.execution,
                    item.deadline, name=item.name)
            except (ConnectionError, OSError):
                dropped += 1
                return
            latencies.append((time.perf_counter() - begin) * 1000.0)
            status = str(response.get("status", "error"))
            replies[status] = replies.get(status, 0) + 1
            if status == "accepted" and item.release_after:
                releases_sent += 1
                try:
                    released = await client.release(item.channel,
                                                    item.name)
                except (ConnectionError, OSError):
                    return
                if released.get("status") == "released":
                    releases_confirmed += 1

    begin = time.perf_counter()
    await asyncio.gather(*(fire(index, item)
                           for index, item in enumerate(stream)))
    wall = time.perf_counter() - begin
    for client in clients:
        await client.close()

    latency_summary: Dict[str, float] = {}
    if latencies:
        latency_summary = {
            "p50": percentile(latencies, 50),
            "p90": percentile(latencies, 90),
            "p99": percentile(latencies, 99),
            "max": max(latencies),
            "mean": sum(latencies) / len(latencies),
        }
    return LoadgenReport(
        requests=len(stream), replies=dict(sorted(replies.items())),
        dropped=dropped, wall_s=wall, latency_ms=latency_summary,
        releases_sent=releases_sent,
        releases_confirmed=releases_confirmed)

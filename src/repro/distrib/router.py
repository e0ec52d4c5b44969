"""The sharded admission front: one router, N shard processes.

Topology::

    clients --JSON lines--> router --release/admit_batch--> shard 0..N-1

The router is an :class:`~repro.service.server.AdmissionFront` -- the
same connection handling, parser, bounded queue and batcher as the
single-process service -- that runs each batch pass on its shards
instead of on local ledgers.  It owns no ledger.  A pass's releases and
admits are grouped by the rendezvous-hashed owner of their channel
(:mod:`repro.distrib.hashing`); each owning shard gets its releases,
then its admits as ``admit_batch`` lines (:func:`admit_chunks`), in
pass order on its one link, and the router waits for every shard
before the next pass.  Every shard therefore sees exactly the solo
pass sequence restricted to its channels, and answers exactly as the
single-process service would.  ``ping`` and ``plan_retransmission`` are answered by
the front; ``stats`` fans out to every live shard and the pinned
``STATUS_FIELDS`` payload is re-aggregated key-for-key
(:func:`aggregate_stats`), so a sharded service is drop-in observable.

Lifecycle: shards are spawned before the router accepts connections; a
health loop pings each shard and restarts dead ones with bounded
retries and exponential backoff.  While a shard is down its requests
get immediate ``status: overload`` replies.  SIGTERM drains like the
single-process service (stop accepting, answer the queue), then closes
the shard links and SIGTERMs every shard.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distrib.hashing import shard_channels, shard_for
from repro.distrib.shard import ShardProcess, ShardSpec
from repro.obs import NULL_OBS, ObsLike
from repro.service.client import ServiceClient
from repro.service.config import ServiceSetup, load_service_setup
from repro.service.protocol import (
    MAX_BATCH_REQUESTS,
    MAX_LINE_BYTES,
    Request,
    encode_response,
)
from repro.service.server import (
    CHANNEL_STATUS_FIELDS,
    STATUS_FIELDS,
    AdmissionFront,
    Sink,
)

__all__ = ["ShardRouter", "admit_chunks", "aggregate_stats",
           "serve_sharded"]

#: Bytes of an ``admit_batch`` line that are not its entries.
ENVELOPE_BYTES = 128


def aggregate_stats(setup: ServiceSetup,
                    shard_payloads: Sequence[Dict[str, object]],
                    router_counters: Dict[str, int],
                    queue_depth: int = 0, queue_limit: int = 0,
                    draining: bool = False) -> Dict[str, object]:
    """Merge per-shard ``stats`` payloads into one service payload.

    The result carries exactly :data:`~repro.service.server.STATUS_FIELDS`
    -- the same pinned contract the single-process service answers --
    so clients cannot tell (from shape) that they hit a router:

    - ``channels``: union of the shards' channel entries (disjoint by
      construction -- each channel has one owner shard).
    - ``counters``: key-wise sum across shards, plus the router's own
      ``router.*`` counters.
    - ``batches``: sum.
    - ``mean_batch_size``: batch-weighted mean across shards.
    - ``queue_depth`` / ``queue_limit``: the router's own bounded queue
      (passed in), the one that answers "queue full".
    - ``draining``: true if the router or any shard is draining.
    """
    channels: Dict[str, Dict[str, object]] = {}
    counters: Dict[str, int] = {}
    batches = 0
    weighted_batch_requests = 0.0
    any_draining = draining
    for payload in shard_payloads:
        for channel, entry in sorted(payload.get("channels", {}).items()):  # type: ignore[union-attr]
            channels[channel] = {field: entry[field]
                                 for field in CHANNEL_STATUS_FIELDS}
        for key, value in payload.get("counters", {}).items():  # type: ignore[union-attr]
            counters[key] = counters.get(key, 0) + int(value)
        shard_batches = int(payload.get("batches", 0))  # type: ignore[arg-type]
        batches += shard_batches
        weighted_batch_requests += (
            float(payload.get("mean_batch_size", 0.0)) * shard_batches)  # type: ignore[arg-type]
        any_draining = any_draining or bool(payload.get("draining"))
    for key, value in router_counters.items():
        counters[key] = counters.get(key, 0) + value
    values = {
        "status": "ok",
        "workload": setup.workload,
        "tick_us": setup.tick_us,
        "engine_mode": setup.engine_mode,
        "channels": {channel: channels[channel]
                     for channel in sorted(channels)},
        "counters": dict(sorted(counters.items())),
        "batches": batches,
        "mean_batch_size": (round(weighted_batch_requests / batches, 3)
                            if batches else 0.0),
        "queue_depth": queue_depth,
        "queue_limit": queue_limit,
        "draining": any_draining,
    }
    return {field: values[field] for field in STATUS_FIELDS}


def admit_chunks(admits: List[Tuple[Request, Sink]]
                 ) -> List[List[Tuple[Request, Sink]]]:
    """Split pass-ordered admits into ``admit_batch``-sized runs.

    A run holds at most :data:`MAX_BATCH_REQUESTS` entries and its
    line stays under :data:`MAX_LINE_BYTES`, which the shard enforces
    (a longer line would cost the link).  Consecutive runs of one
    sorted pass are admitted exactly as the whole pass would be: every
    admit advances its channel clock to its own arrival first.
    """
    chunks: List[List[Tuple[Request, Sink]]] = []
    size = 0
    for item in admits:
        # The encoded entry plus its separator; ENVELOPE_BYTES covers
        # the op, the link id and the brackets.
        entry = len(encode_response(item[0].fields))
        if (not chunks or len(chunks[-1]) == MAX_BATCH_REQUESTS
                or size + entry > MAX_LINE_BYTES - ENVELOPE_BYTES):
            chunks.append([])
            size = 0
        chunks[-1].append(item)
        size += entry
    return chunks


class _ShardLink:
    """The router's live view of one shard: process + connection."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.process = ShardProcess(spec)
        self.client: Optional[ServiceClient] = None
        self.restarts_left = 0  # set by the router
        self.lock = asyncio.Lock()

    @property
    def index(self) -> int:
        return self.spec.index

    @property
    def available(self) -> bool:
        return self.client is not None


class ShardRouter(AdmissionFront):
    """Front process of a sharded admission deployment.

    Args:
        setup: The verified configuration (loaded once, in the router,
            from ``setup_kwargs``; shards rebuild it themselves).
        setup_kwargs: Picklable kwargs for
            :func:`~repro.service.config.load_service_setup`, shipped
            to every shard.
        shards: Shard process count (>= 1).
        obs: Observability context for the ``router.*`` counters.
        max_restarts: Restart budget per shard; exhausted -> the shard
            stays down and its requests get ``overload`` replies.
        restart_backoff_s: First restart delay; doubles per retry.
        health_interval_s: Seconds between health-check sweeps.
        request_timeout_s: Per-request budget in the router's queue,
            and the budget of one shard round trip or health ping.
        queue_limit/batch_limit: The router front's queue and pass
            size (see :class:`~repro.service.server.AdmissionFront`),
            also forwarded to each shard's ``AdmissionService``.
        reconcile_every: Forwarded to each shard's ``AdmissionService``.
    """

    prefix = "router"

    def __init__(self, setup: ServiceSetup,
                 setup_kwargs: Dict[str, object],
                 shards: int,
                 obs: ObsLike = NULL_OBS,
                 max_restarts: int = 3,
                 restart_backoff_s: float = 0.25,
                 health_interval_s: float = 1.0,
                 request_timeout_s: float = 5.0,
                 queue_limit: int = 1024,
                 batch_limit: int = 256,
                 reconcile_every: int = 64) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        super().__init__(setup, obs=obs, queue_limit=queue_limit,
                         batch_limit=batch_limit,
                         request_timeout_s=request_timeout_s)
        self._max_restarts = max_restarts
        self._restart_backoff_s = restart_backoff_s
        self._health_interval_s = health_interval_s
        self.shard_count = shards
        owned = shard_channels(setup.channels, shards)
        self.links: List[_ShardLink] = []
        for index in range(shards):
            spec = ShardSpec(
                index=index, channels=tuple(owned[index]),
                setup_kwargs=dict(setup_kwargs),
                queue_limit=queue_limit, batch_limit=batch_limit,
                request_timeout_s=request_timeout_s,
                reconcile_every=reconcile_every)
            link = _ShardLink(spec)
            link.restarts_left = max_restarts
            self.links.append(link)
        self._health_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Spawn every shard, connect, bind the front socket."""
        if self._server is not None:
            raise RuntimeError("router already started")
        loop = asyncio.get_running_loop()
        for link in self.links:
            await loop.run_in_executor(None, link.process.spawn)
        for link in self.links:
            assert link.process.port is not None
            link.client = await ServiceClient.connect(
                "127.0.0.1", link.process.port)
        bound = await super().start(host=host, port=port)
        self._health_task = asyncio.create_task(self._health_loop())
        return bound

    async def _finish_drain(self) -> None:
        # Every queued request has been answered: the shard links and
        # the shards can go.
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        loop = asyncio.get_running_loop()
        for link in self.links:
            if link.client is not None:
                await link.client.close()
                link.client = None
            await loop.run_in_executor(None, link.process.terminate)
        await super()._finish_drain()

    # -- health / restart ----------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval_s)
            for link in self.links:
                if self._draining:
                    return
                if await self._healthy(link):
                    continue
                await self._restart(link)

    async def _healthy(self, link: _ShardLink) -> bool:
        if not link.process.is_alive() or link.client is None:
            return False
        # The ping queues behind the pass on the link; a busy shard is
        # not a dead one, so it gets a request's budget, not a sweep's.
        try:
            reply = await asyncio.wait_for(
                link.client.ping(), self._timeout)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return False
        return reply.get("status") == "ok"

    async def _restart(self, link: _ShardLink) -> None:
        """Restart one dead shard (bounded retries, exponential backoff)."""
        async with link.lock:
            if self._draining or await self._healthy(link):
                return
            if link.client is not None:
                await link.client.close()
                link.client = None
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, link.process.terminate)
            while link.restarts_left > 0:
                used = self._max_restarts - link.restarts_left
                link.restarts_left -= 1
                await asyncio.sleep(self._restart_backoff_s * (2 ** used))
                if self._draining:
                    return
                self._count("router.shard_restarts")
                try:
                    link.process = ShardProcess(link.spec)
                    port = await loop.run_in_executor(
                        None, link.process.spawn)
                    link.client = await ServiceClient.connect(
                        "127.0.0.1", port)
                except (RuntimeError, ConnectionError, OSError) as error:
                    print(f"repro serve: shard {link.index} restart "
                          f"failed: {error}", file=sys.stderr, flush=True)
                    await loop.run_in_executor(
                        None, link.process.terminate)
                    continue
                print(f"repro serve: shard {link.index} restarted "
                      f"on port {port}", file=sys.stderr, flush=True)
                return
            self._count("router.shard_abandoned")
            print(f"repro serve: shard {link.index} abandoned after "
                  f"{self._max_restarts} restarts", file=sys.stderr,
                  flush=True)

    # -- the pass, on the shards ---------------------------------------

    async def _shard_request(self, link: _ShardLink,
                             payload: Dict[str, object]
                             ) -> Dict[str, object]:
        """One round trip on a shard's link; a down shard is ``overload``."""
        client = link.client
        if client is None:
            self._count("router.overload")
            return {"status": "overload",
                    "reason": f"shard {link.index} unavailable"}
        try:
            response = await asyncio.wait_for(
                client.request(payload), self._timeout)
        except asyncio.TimeoutError:
            self._count("router.overload")
            self._count("router.shard_timeouts")
            return {"status": "overload",
                    "reason": f"shard {link.index} timed out"}
        except (ConnectionError, OSError):
            self._count("router.overload")
            self._count("router.shard_errors")
            if link.client is client:
                link.client = None  # health loop restarts it
            return {"status": "overload",
                    "reason": f"shard {link.index} unavailable"}
        response.pop("id", None)  # the link client's own id
        return response

    async def _process_batch(
            self, batch: List[Tuple[Request, asyncio.Future]]) -> None:
        """Run the pass on the owning shards, all shards concurrently."""
        releases, admits = self._split(batch)
        work: Dict[int, Tuple[List[Tuple[Request, Sink]],
                              List[Tuple[Request, Sink]]]] = {}
        for part, items in enumerate((releases, admits)):
            for request, sink in items:
                shard = shard_for(str(request.fields["channel"]),
                                  self.shard_count)
                work.setdefault(shard, ([], []))[part].append(
                    (request, sink))
        await asyncio.gather(*(
            self._shard_pass(self.links[shard], *work[shard])
            for shard in sorted(work)))

    async def _shard_pass(self, link: _ShardLink,
                          releases: List[Tuple[Request, Sink]],
                          admits: List[Tuple[Request, Sink]]) -> None:
        """One shard's part of a pass, in pass order on its link."""
        for request, sink in releases:
            self._count("router.forwards")
            sink(await self._shard_request(
                link, {"op": "release", **request.fields}))
        for chunk in admit_chunks(admits):
            self._count("router.batches")
            self._count("router.batched_admits", len(chunk))
            reply = await self._shard_request(link, {
                "op": "admit_batch",
                "requests": [request.fields for request, __ in chunk]})
            responses = reply.get("responses")
            if (reply.get("status") == "ok"
                    and isinstance(responses, list)
                    and len(responses) == len(chunk)):
                for (__, sink), response in zip(chunk, responses):
                    sink(response)
            else:
                # Shard-level failure (overload/timeout/down): every
                # entry gets the same verdict.
                for __, sink in chunk:
                    sink(dict(reply))

    async def _stats_response(self) -> Dict[str, object]:
        self._count("router.stats")
        payloads = []
        for link in self.links:
            reply = (await self._shard_request(link, {"op": "stats"})
                     if link.available else None)
            if reply is not None and reply.get("status") == "ok":
                payloads.append(reply)
            else:
                # Missing channels in the merge are attributable.
                self._count("router.stats_shards_down")
        return aggregate_stats(
            self.setup, payloads, dict(self.counters),
            queue_depth=self._queue.qsize(), queue_limit=self._queue_limit,
            draining=self._draining)


async def serve_sharded(setup_kwargs: Dict[str, object],
                        shards: int,
                        host: str = "127.0.0.1", port: int = 8471,
                        obs: ObsLike = NULL_OBS,
                        queue_limit: int = 1024, batch_limit: int = 256,
                        request_timeout_s: float = 5.0,
                        reconcile_every: int = 64,
                        max_restarts: int = 3,
                        restart_backoff_s: float = 0.25,
                        health_interval_s: float = 1.0) -> ShardRouter:
    """Run a sharded admission service until SIGTERM/SIGINT drains it.

    The router loads (and thereby verifies) the setup once; each shard
    child rebuilds it from the same kwargs and restricts itself to its
    owned channels.

    Returns:
        The drained router (its counters are still readable).
    """
    setup = load_service_setup(**setup_kwargs)  # type: ignore[arg-type]
    router = ShardRouter(
        setup, setup_kwargs, shards, obs=obs,
        max_restarts=max_restarts,
        restart_backoff_s=restart_backoff_s,
        health_interval_s=health_interval_s,
        request_timeout_s=request_timeout_s,
        queue_limit=queue_limit, batch_limit=batch_limit,
        reconcile_every=reconcile_every)
    bound_host, bound_port = await router.start(host=host, port=port)
    router.install_signal_handlers()
    print(f"repro serve: listening on {bound_host}:{bound_port} "
          f"(workload {setup.workload}, shards {shards}, channels "
          f"{','.join(setup.channels)})",
          file=sys.stderr, flush=True)
    await router.wait_closed()
    return router

"""The asyncio admission-control server.

Request lifecycle::

    socket -> parse -> bounded queue -> batcher -> pass -> response

One process holds one front (connection handling, parsing, the bounded
queue, the batcher, drain, ``ping`` and ``plan_retransmission``) and
runs every pass on its own per-channel ledgers.  A FlexRay cluster has
at most two channels, so two independent ledgers are all the
parallelism admission has.

- **Batching**: the batcher coroutine wakes on the first queued request,
  yields once to the event loop so every request that arrived in the
  same tick can enqueue, then drains the queue (up to ``batch_limit``)
  and runs ONE slack-accounting pass over the whole batch inside a
  profiler span.  Within a batch, releases run first (they free slack),
  then admits in deterministic ``(arrival, deadline, name)`` order.
- **Backpressure**: the queue is bounded; when it is full the request
  is answered immediately with ``status: overload`` -- nothing blocks,
  nothing is silently dropped.  A request that waits in the queue past
  its timeout is answered ``overload`` too (the batcher skips futures
  the connection side already resolved).
- **Reconciliation**: every ``reconcile_every`` batches the server runs
  each channel ledger's full recompute and counts divergences
  (``service.reconcile.divergence`` must stay 0).
- **Drain**: SIGTERM/SIGINT (or :meth:`AdmissionService.stop`) stops
  accepting new work -- late requests get ``overload`` with reason
  ``draining`` -- finishes every queued request, then closes.
- **Isolation**: malformed lines get ``status: error`` replies and the
  connection stays open; one broken client cannot take the service
  down.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.acceptance import AcceptanceTest
from repro.core.retransmission import plan_retransmissions
from repro.obs import NULL_OBS, ObsLike
from repro.service.config import ServiceSetup
from repro.service.ledger import SlackLedger
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    encode_response,
    parse_request,
)

__all__ = ["AdmissionService", "CHANNEL_STATUS_FIELDS", "STATUS_FIELDS",
           "serve_forever"]

#: Takes one request's response (see :meth:`AdmissionService._split`).
Sink = Callable[[Dict[str, object]], None]

#: Exact top-level key set of the ``stats`` reply, in reply order.
#: docs/service.md documents these one-for-one, and the round-trip test
#: (tests/service/test_status_contract.py) pins payload, this tuple and
#: the docs together so they cannot drift apart again.
STATUS_FIELDS = ("status", "workload", "tick_us", "engine_mode",
                 "channels", "counters", "batches", "mean_batch_size",
                 "queue_depth", "queue_limit", "draining")

#: Exact key set of each per-channel entry under ``channels``.
CHANNEL_STATUS_FIELDS = ("live", "committed", "admitted_total",
                         "rejected_total", "released_total",
                         "expired_total", "now", "horizon",
                         "capacity_total", "capacity_remaining")


class AdmissionService:
    """One live admission-control service over a verified setup.

    Connections are read one line at a time; ``admit``,
    ``admit_batch`` and ``release`` go through ONE bounded queue into
    ONE batcher, which coalesces every connection's pending requests
    into a pass (:meth:`_split` fixes its order) on this process's own
    per-channel :class:`~repro.service.ledger.SlackLedger`\\ s.

    Args:
        setup: The verified configuration (see
            :func:`repro.service.config.load_service_setup`).
        obs: Observability context; counters and profiler spans are
            mirrored into it when enabled.
        queue_limit: Bounded request-queue size (backpressure point).
        batch_limit: Max requests coalesced into one batch pass.
        request_timeout_s: Per-request wall-clock budget from enqueue
            to response; exceeded -> ``overload`` reply.
        reconcile_every: Run the incremental-vs-recomputed slack
            reconciliation every N batches (0 disables).
        audit_every: Additionally trial-run every Nth *admitted*
            request through a fresh offline
            :class:`~repro.core.acceptance.AcceptanceTest` and count
            agreement (0 disables; expensive, meant for tests and
            canary deployments).
        store: A :class:`repro.results.ResultStore` audit samples and
            the final drain summary are persisted into (optional; the
            samples become queryable under ``repro web`` /audits).
    """

    def __init__(self, setup: ServiceSetup, obs: ObsLike = NULL_OBS,
                 queue_limit: int = 1024, batch_limit: int = 256,
                 request_timeout_s: float = 5.0,
                 reconcile_every: int = 64,
                 audit_every: int = 0,
                 store=None) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if batch_limit < 1:
            raise ValueError("batch_limit must be >= 1")
        self.setup = setup
        self._obs = obs
        self._queue_limit = queue_limit
        self._batch_limit = batch_limit
        self._timeout = request_timeout_s
        self._reconcile_every = reconcile_every
        self._audit_every = audit_every
        self._store = store
        self.counters: Dict[str, int] = {}
        self.ledgers: Dict[str, SlackLedger] = {
            channel: SlackLedger(tasks, obs=obs, channel=channel)
            for channel, tasks in sorted(setup.channel_tasks.items())
        }
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_limit)
        self._server: Optional[asyncio.base_events.Server] = None
        self._batcher: Optional[asyncio.Task] = None
        self._draining = False
        self._drained = asyncio.Event()

    # -- counters ------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        if self._obs.enabled:
            self._obs.inc(name, amount)

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port,
            limit=MAX_LINE_BYTES + 2)
        self._batcher = asyncio.create_task(self._batch_loop())
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    def install_signal_handlers(self) -> None:
        """Drain gracefully on SIGTERM/SIGINT (POSIX event loops)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.stop()))
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass

    async def stop(self) -> None:
        """Graceful drain: refuse new work, answer the backlog, close."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Wake the batcher so it can observe the drain flag even with
        # an empty queue.
        await self._queue.put(None)
        await self._drained.wait()

    async def wait_closed(self) -> None:
        """Block until a drain completes."""
        await self._drained.wait()

    # -- connection handling -------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._count("service.connections")
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self._count("service.protocol_errors")
                    writer.write(encode_response(
                        {"status": "error",
                         "reason": "request line too long"}))
                    await writer.drain()
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                response = await self._dispatch(text)
                writer.write(encode_response(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, text: str) -> Dict[str, object]:
        try:
            request = parse_request(text)
        except ProtocolError as error:
            self._count("service.protocol_errors")
            return {"status": "error", "reason": str(error)}
        self._count("service.requests")

        if request.op == "ping":
            return self._reply(request, {"status": "ok"})
        if request.op == "stats":
            return self._reply(request, self._stats_response())
        if request.op == "plan_retransmission":
            return self._reply(request, self._plan_response(request))

        # admit / admit_batch / release are serialized through the
        # batcher.
        if self._draining:
            self._count("service.overload")
            return self._reply(request,
                               {"status": "overload", "reason": "draining"})
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((request, future))
        except asyncio.QueueFull:
            self._count("service.overload")
            self._count("service.queue.rejected")
            return self._reply(request,
                               {"status": "overload",
                                "reason": "queue full"})
        if self._obs.enabled:
            self._obs.set_gauge("service.queue.depth",
                                self._queue.qsize())
        try:
            response = await asyncio.wait_for(future, self._timeout)
        except asyncio.TimeoutError:
            self._count("service.overload")
            self._count("service.timeouts")
            return self._reply(request,
                               {"status": "overload",
                                "reason": "timed out in queue"})
        return self._reply(request, response)

    @staticmethod
    def _reply(request: Request,
               response: Dict[str, object]) -> Dict[str, object]:
        if request.id is not None:
            response = dict(response)
            response["id"] = request.id
        return response

    # -- the batch pass ------------------------------------------------

    async def _batch_loop(self) -> None:
        while True:
            item = await self._queue.get()
            # Yield once: requests arriving in the same event-loop tick
            # get to enqueue and share this batch's slack pass.
            await asyncio.sleep(0)
            batch: List[Tuple[Request, asyncio.Future]] = []
            if item is not None:
                batch.append(item)
            while (len(batch) < self._batch_limit
                   and not self._queue.empty()):
                extra = self._queue.get_nowait()
                if extra is not None:
                    batch.append(extra)
            if batch:
                self._process_batch(batch)
            if self._draining and self._queue.empty():
                self._finish_drain()
                return

    def _finish_drain(self) -> None:
        if self._reconcile_every:
            # Final incremental-vs-recomputed agreement check: a drain
            # must leave provably consistent books behind.
            self.reconcile()
        if self._store is not None:
            counters = dict(sorted(self.counters.items()))
            batches = counters.get("service.batches", 0)
            self._store.record_service_audit(
                self.setup.workload, self.setup.engine_mode, "drain",
                ordinal=batches,
                payload={"counters": counters, "batches": batches,
                         "batched_requests": counters.get(
                             "service.batch.requests", 0)})
        # The batcher exits right after this call; nothing to cancel.
        self._batcher = None
        self._drained.set()

    def _process_batch(
            self, batch: List[Tuple[Request, asyncio.Future]]) -> None:
        """One slack-accounting pass over a coalesced batch (no awaits)."""
        self._count("service.batches")
        self._count("service.batch.requests", len(batch))
        if self._obs.enabled:
            self._obs.set_gauge("service.batch.size", len(batch))
        with self._obs.section("service.batch"):
            releases, admits = self._split(batch)
            for request, sink in releases:
                sink(self._release(request))
            # Each admit first advances its channel's clock to its own
            # arrival (see _admit): expiry precedes every test.
            for request, sink in admits:
                sink(self._admit(request))
        if (self._reconcile_every
                and self.counters["service.batches"]
                % self._reconcile_every == 0):
            self.reconcile()

    def _split(self, batch: List[Tuple[Request, asyncio.Future]]
               ) -> Tuple[List[Tuple[Request, Sink]],
                          List[Tuple[Request, Sink]]]:
        """A batch's ``(releases, admits)`` in pass order.

        Each is a list of ``(Request, sink)``; a sink takes the
        request's response.  Releases keep queue order and run first
        (they free slack).  Admits -- single ones and every
        ``admit_batch`` entry -- are sorted by ``(arrival, deadline,
        name)``; an invalid entry is answered here, positionally.
        """
        releases = []
        admits = []
        for request, future in batch:
            if request.op == "release":
                releases.append((request, self._future_sink(future)))
            elif request.op == "admit":
                admits.append((request, self._future_sink(future)))
            else:  # admit_batch: entries join this pass as admits.
                entries = request.fields["requests"]
                assert isinstance(entries, list)
                self._count("service.client_batches")
                self._count("service.batch_admit.entries",
                            len(entries))
                slots: List[Optional[Dict[str, object]]] = (
                    [None] * len(entries))
                remaining = [len(entries)]
                for position, entry in enumerate(entries):
                    sink = self._batch_sink(future, slots,
                                            remaining, position)
                    if "invalid" in entry:
                        self._count("service.protocol_errors")
                        sink({"status": "error",
                              "reason": str(entry["invalid"])})
                        continue
                    sub = Request(op="admit", id=None,
                                  fields=dict(entry))
                    admits.append((sub, sink))
        admits.sort(key=lambda item: (
            item[0].fields["arrival"], item[0].fields["deadline"],
            str(item[0].fields["name"])))
        return releases, admits

    @staticmethod
    def _resolve(future: asyncio.Future,
                 response: Dict[str, object]) -> None:
        # The connection side may have timed out (and answered
        # overload) while this request waited; never double-resolve.
        if not future.done():
            future.set_result(response)

    @classmethod
    def _future_sink(cls, future: asyncio.Future) -> Sink:
        """Response sink for a single-request queue item."""
        def sink(response: Dict[str, object]) -> None:
            cls._resolve(future, response)
        return sink

    @classmethod
    def _batch_sink(cls, future: asyncio.Future,
                    slots: List[Optional[Dict[str, object]]],
                    remaining: List[int], position: int) -> Sink:
        """Response sink for one ``admit_batch`` entry.

        Entries are processed in the pass's deterministic sorted order
        but answered positionally: ``responses[i]`` is entry ``i``'s
        reply, byte-identical to what it would have received as an
        individual ``admit`` in the same batch.
        """
        def sink(response: Dict[str, object]) -> None:
            slots[position] = response
            remaining[0] -= 1
            if not remaining[0]:
                cls._resolve(future,
                             {"status": "ok", "responses": list(slots)})
        return sink

    def _admit(self, request: Request) -> Dict[str, object]:
        channel = str(request.fields["channel"])
        ledger = self.ledgers.get(channel)
        if ledger is None:
            return {"status": "rejected",
                    "reason": f"unknown channel {channel!r}",
                    "channel": channel}
        name = str(request.fields["name"])
        arrival = int(request.fields["arrival"])  # type: ignore[arg-type]
        execution = int(request.fields["execution"])  # type: ignore[arg-type]
        deadline = int(request.fields["deadline"])  # type: ignore[arg-type]
        ledger.advance(arrival)
        outcome = ledger.admit(name, arrival, execution, deadline)
        if outcome.admitted:
            self._count("service.admits")
            self._maybe_audit(channel, ledger)
        else:
            self._count("service.rejects")
        return {
            "status": "accepted" if outcome.admitted else "rejected",
            "reason": outcome.reason,
            "channel": channel,
            "name": name,
            "arrival": outcome.arrival,
            "deadline": outcome.deadline,
            "window_slack": outcome.window_slack,
        }

    def _release(self, request: Request) -> Dict[str, object]:
        channel = str(request.fields["channel"])
        ledger = self.ledgers.get(channel)
        if ledger is None:
            return {"status": "not_found",
                    "reason": f"unknown channel {channel!r}",
                    "channel": channel}
        name = str(request.fields["name"])
        released = ledger.release(name)
        if released:
            self._count("service.releases")
        return {"status": "released" if released else "not_found",
                "channel": channel, "name": name}

    def _maybe_audit(self, channel: str, ledger: SlackLedger) -> None:
        """Sampled cross-check against the offline acceptance test.

        Every ``audit_every``-th admission replays the channel's whole
        live set through a fresh trial-run
        :class:`~repro.core.acceptance.AcceptanceTest`.  The two tests
        share the capacity model but not the service discipline (the
        ledger serves EDF over guaranteed capacity, the trial runs
        FIFO with exact online slack), so disagreement is *recorded*,
        not asserted -- the counters make the fast path's fidelity
        observable.
        """
        if not self._audit_every:
            return
        admitted = self.counters.get("service.admits", 0)
        if admitted % self._audit_every:
            return
        tasks = self.setup.channel_tasks.get(channel)
        if tasks is None or not len(tasks):
            return
        self._count("service.audit.runs")
        with self._obs.section("service.audit"):
            from repro.core.tasks import AperiodicTask

            reference = AcceptanceTest(tasks)
            agreed = True
            live = ledger.live_tasks()
            for name, arrival, deadline, execution in live:
                # Rebuild the live set as offline aperiodic tasks.
                result = reference.admit(AperiodicTask(
                    name=name, arrival=arrival, execution=execution,
                    deadline=deadline - arrival))
                if not result.admitted:
                    agreed = False
        self._count("service.audit.agreements" if agreed
                    else "service.audit.disagreements")
        if self._store is not None:
            self._store.record_service_audit(
                self.setup.workload, self.setup.engine_mode, "audit",
                ordinal=self.counters.get("service.audit.runs", 0),
                payload={"channel": channel, "agreed": agreed,
                         "live": len(live), "admitted_total": admitted})

    # -- reconciliation ------------------------------------------------

    def reconcile(self) -> int:
        """Full-recompute reconciliation over every channel ledger.

        Returns:
            Total divergence count (0 on a healthy service).
        """
        divergences = 0
        with self._obs.section("service.reconcile"):
            for channel in sorted(self.ledgers):
                result = self.ledgers[channel].reconcile()
                divergences += len(result.divergences)
                for detail in result.divergences:
                    print(f"repro serve: reconcile divergence on "
                          f"channel {channel}: {detail}", file=sys.stderr)
        self._count("service.reconcile.runs")
        if divergences:
            self._count("service.reconcile.divergence", divergences)
        return divergences

    # -- read-only ops -------------------------------------------------

    def _stats_response(self) -> Dict[str, object]:
        """The ``stats`` payload: exactly :data:`STATUS_FIELDS`."""
        # Built off the documented field tuples so the payload cannot
        # grow a key the contract (and docs/service.md) doesn't list.
        channels = {}
        for channel in sorted(self.ledgers):
            stats = self.ledgers[channel].stats()
            channels[channel] = {field: getattr(stats, field)
                                 for field in CHANNEL_STATUS_FIELDS}
        batches = self.counters.get("service.batches", 0)
        mean_batch = (self.counters.get("service.batch.requests", 0)
                      / batches if batches else 0.0)
        values = {
            "status": "ok",
            "workload": self.setup.workload,
            "tick_us": self.setup.tick_us,
            "engine_mode": self.setup.engine_mode,
            "channels": channels,
            "counters": dict(sorted(self.counters.items())),
            "batches": batches,
            "mean_batch_size": round(mean_batch, 3),
            "queue_depth": self._queue.qsize(),
            "queue_limit": self._queue_limit,
            "draining": self._draining,
        }
        return {field: values[field] for field in STATUS_FIELDS}

    def _plan_response(self, request: Request) -> Dict[str, object]:
        messages = request.fields["messages"]
        assert isinstance(messages, dict)
        failure = {name: spec["failure_probability"]
                   for name, spec in messages.items()}
        instances = {name: spec["instances"]
                     for name, spec in messages.items()}
        costs = {name: spec["cost"] for name, spec in messages.items()
                 if "cost" in spec}
        with self._obs.section("service.plan"):
            plan = plan_retransmissions(
                failure, instances, float(request.fields["rho"]),  # type: ignore[arg-type]
                bandwidth_cost=costs or None)
        self._count("service.plans")
        return {
            "status": "ok",
            "feasible": plan.feasible,
            "achieved_probability": plan.achieved_probability,
            "budgets": dict(sorted(plan.budgets.items())),
        }


async def serve_forever(setup: ServiceSetup, host: str = "127.0.0.1",
                        port: int = 8471, obs: ObsLike = NULL_OBS,
                        queue_limit: int = 1024, batch_limit: int = 256,
                        request_timeout_s: float = 5.0,
                        reconcile_every: int = 64,
                        audit_every: int = 0,
                        store=None) -> AdmissionService:
    """Run an admission service until SIGTERM/SIGINT drains it.

    Returns:
        The drained service (its counters are still readable).
    """
    service = AdmissionService(
        setup, obs=obs, queue_limit=queue_limit, batch_limit=batch_limit,
        request_timeout_s=request_timeout_s,
        reconcile_every=reconcile_every, audit_every=audit_every,
        store=store)
    bound_host, bound_port = await service.start(host=host, port=port)
    service.install_signal_handlers()
    print(f"repro serve: listening on {bound_host}:{bound_port} "
          f"(workload {setup.workload}, channels "
          f"{','.join(setup.channels)}, "
          f"horizons {[service.ledgers[c].horizon for c in sorted(service.ledgers)]} ticks)",
          file=sys.stderr, flush=True)
    await service.wait_closed()
    return service

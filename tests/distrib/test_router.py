"""End-to-end tests for the sharded admission router.

Every test spawns real shard processes (multiprocessing spawn) behind
a real router socket -- the full client -> router -> admit_batch ->
shard -> reply path.  Startup is the dominant cost, so tests batch
their assertions per running router.
"""

import asyncio
import os
import signal

import pytest

from repro.distrib.hashing import shard_for
from repro.distrib.router import ShardRouter, admit_chunks, aggregate_stats
from repro.service.client import ServiceClient
from repro.service.config import load_service_setup
from repro.service.loadgen import LoadgenSpec, generate_requests
from repro.service.protocol import (
    MAX_BATCH_REQUESTS,
    MAX_LINE_BYTES,
    Request,
    encode_response,
)
from repro.service.server import (
    CHANNEL_STATUS_FIELDS,
    STATUS_FIELDS,
    AdmissionService,
)

SETUP_KWARGS = {"workload": "bbw", "verify": False}


def run(coroutine):
    return asyncio.run(coroutine)


async def with_router(body, shards=2, **router_kwargs):
    setup = load_service_setup(**SETUP_KWARGS)
    router_kwargs.setdefault("health_interval_s", 0.2)
    router = ShardRouter(setup, SETUP_KWARGS, shards, **router_kwargs)
    host, port = await router.start()
    client = await ServiceClient.connect(host, port)
    try:
        result = await body(router, client)
    finally:
        await client.close()
        await router.stop()
    return router, result


async def with_service(body):
    """``body(service, client)`` against the single-process service."""
    service = AdmissionService(load_service_setup(**SETUP_KWARGS))
    host, port = await service.start(port=0)
    client = await ServiceClient.connect(host, port)
    try:
        result = await body(service, client)
    finally:
        await client.close()
        await service.stop()
    return service, result


async def connect(server, count):
    """``count`` more client connections to a running front."""
    host, port = server._server.sockets[0].getsockname()[:2]
    return [await ServiceClient.connect(host, port)
            for __ in range(count)]


def stream_verdicts(stream, connections):
    """A body sending ``stream`` pipelined over ``connections``.

    Every admit is in flight at once, spread round-robin over the
    connections like ``repro loadgen``; the result maps request name
    to reply status.
    """
    async def body(server, client):
        clients = [client] + await connect(server, connections - 1)
        try:
            replies = await asyncio.gather(*(
                clients[index % connections].admit(
                    item.channel, item.arrival, item.execution,
                    item.deadline, name=item.name)
                for index, item in enumerate(stream)))
        finally:
            for other in clients[1:]:
                await other.close()
        return {item.name: reply["status"]
                for item, reply in zip(stream, replies)}
    return body


class TestDifferential:
    """A shard pass is the solo pass restricted to the shard's channels.

    So a pipelined multi-connection stream gets the same verdict per
    request name from 2 shards as from the single-process service.
    """

    def test_pipelined_stream_matches_solo(self):
        # Seed 7, 400 requests, 8 connections: a router that coalesced
        # per connection accepted 109 of these where solo accepts 400.
        stream = generate_requests(LoadgenSpec(requests=400, seed=7))
        __, solo = run(with_service(stream_verdicts(stream, 8)))
        assert list(solo.values()) == ["accepted"] * 400
        __, sharded = run(with_router(stream_verdicts(stream, 8)))
        assert sharded == solo

    def test_contended_stream_matches_solo(self):
        stream = generate_requests(LoadgenSpec(
            requests=300, seed=7, mean_interarrival_ticks=1.0))
        __, solo = run(with_service(stream_verdicts(stream, 8)))
        # A reference whose verdicts depend on timing proves nothing.
        __, again = run(with_service(stream_verdicts(stream, 8)))
        assert again == solo
        assert "rejected" in solo.values()
        __, sharded = run(with_router(stream_verdicts(stream, 8)))
        assert sharded == solo

    def test_front_replies_match_solo(self):
        # plan_retransmission, malformed lines and an oversize line are
        # the front's business: byte-identical replies, and the router
        # counts them under router.*, never service.*.  The last
        # malformed line is an admit whose name fits the front's line
        # limit but would not fit a shard's admit_batch line.
        long_admit = (b'{"op":"admit","channel":"A","arrival":1,'
                      b'"execution":1,"deadline":300,"name":"')
        long_admit += b"n" * (MAX_LINE_BYTES - len(long_admit) - 10)
        long_admit += b'"}\n'
        malformed = [b"not json\n", b'{"op": "warp"}\n', b"[]\n",
                     b'{"op": "admit", "id": 5}\n',
                     b'{"op": "admit_batch", "requests": []}\n',
                     long_admit]

        async def body(server, client):
            early = await client.admit("A", 0, 1, 300, name="early")
            plan = await client.plan_retransmission(
                {"m1": {"failure_probability": 1e-3, "instances": 20.0},
                 "m2": {"failure_probability": 1e-4, "instances": 10.0}},
                rho=0.9999)
            for line in malformed:
                await client.send_raw(line)
            await client.ping()  # fence: every error line is answered
            # The shard kept its ledger: the earlier admit is there.
            released = await client.release("A", "early")
            host, port = server._server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            huge = b'{"op": "ping", "id": "' + b"x" * (70 * 1024) + b'"}'
            writer.write(huge + b"\n")
            too_long = await reader.readline()
            closed = await reader.read()
            writer.close()
            await writer.wait_closed()
            return (early, released, plan, list(client.unmatched),
                    too_long, closed)

        router, sharded = run(with_router(body))
        service, solo = run(with_service(body))
        assert sharded == solo
        early, released, plan, errors, too_long, closed = solo
        assert early["status"] == "accepted"
        assert released["status"] == "released"
        assert router.counters.get("router.shard_restarts", 0) == 0
        assert plan["status"] == "ok" and set(plan["budgets"]) == {"m1", "m2"}
        assert [e["status"] for e in errors] == ["error"] * len(malformed)
        assert "'name' exceeds" in errors[-1]["reason"]
        assert b"request line too long" in too_long and closed == b""
        assert router.counters["router.plans"] == 1
        assert router.counters["router.protocol_errors"] \
            == service.counters["service.protocol_errors"] \
            == len(malformed) + 1
        assert not any(name.startswith("service.")
                       for name in router.counters)


class TestAdmitChunks:
    def admits(self, count, name_length):
        return [(Request(op="admit", id=None, fields={
                    "channel": "A", "arrival": index, "execution": 1,
                    "deadline": 500,
                    "name": f"{index:06d}".ljust(name_length, "x")}),
                 None)
                for index in range(count)]

    def test_chunks_keep_order_and_entry_cap(self):
        admits = self.admits(1100, 8)
        chunks = admit_chunks(admits)
        assert [len(chunk) for chunk in chunks] \
            == [MAX_BATCH_REQUESTS, MAX_BATCH_REQUESTS, 76]
        assert [item for chunk in chunks for item in chunk] == admits

    def test_long_names_stay_under_the_shard_line_limit(self):
        # 512 entries with 100-character names exceed a shard's line
        # limit; a pass this large forms from several connections'
        # admit_batch lines, each within the limit on its own.
        def line(chunk):
            return encode_response({
                "id": "c" + "9" * 20, "op": "admit_batch",
                "requests": [request.fields for request, __ in chunk]})

        admits = self.admits(600, 100)
        assert len(line(admits[:MAX_BATCH_REQUESTS])) > MAX_LINE_BYTES
        chunks = admit_chunks(admits)
        assert len(chunks[0]) < MAX_BATCH_REQUESTS
        assert [item for chunk in chunks for item in chunk] == admits
        for chunk in chunks:
            assert len(line(chunk)) - 1 <= MAX_LINE_BYTES

    def test_no_admits_no_chunks(self):
        assert admit_chunks([]) == []


class TestRouting:
    def test_admissions_match_direct_service(self):
        # The same request stream against a 2-shard router and the
        # plain in-process service must produce identical decisions.
        requests = [("A", index, 1, 300, f"r{index}")
                    for index in range(10)]
        requests += [("B", index, 2, 400, f"s{index}")
                     for index in range(10)]

        async def sharded(router, client):
            replies = []
            for channel, arrival, execution, deadline, name in requests:
                replies.append(await client.admit(
                    channel, arrival, execution, deadline, name=name))
            return replies

        async def direct():
            setup = load_service_setup(**SETUP_KWARGS)
            service = AdmissionService(setup)
            host, port = await service.start(port=0)
            client = await ServiceClient.connect(host, port)
            replies = []
            try:
                for (channel, arrival, execution, deadline,
                     name) in requests:
                    replies.append(await client.admit(
                        channel, arrival, execution, deadline,
                        name=name))
            finally:
                await client.close()
                await service.stop()
            return replies

        __, through_router = run(with_router(sharded))
        reference = run(direct())
        for mine, theirs in zip(through_router, reference):
            mine.pop("id", None)
            theirs.pop("id", None)
        assert through_router == reference

    def test_release_and_unknown_channel(self):
        async def body(router, client):
            admitted = await client.admit("A", 0, 2, 300, name="j1")
            assert admitted["status"] == "accepted"
            released = await client.release("A", "j1")
            assert released["status"] == "released"
            missing = await client.release("A", "never-admitted")
            assert missing["status"] == "not_found"
            unknown = await client.admit("Zebra", 0, 1, 300, name="j2")
            assert unknown["status"] == "rejected"
            assert "unknown channel" in unknown["reason"]

        run(with_router(body))

    def test_same_tick_admits_coalesce_into_batches(self):
        # The front reads each connection one line at a time, like the
        # solo service, so admits coalesce across connections.
        async def body(router, client):
            clients = [client] + await connect(router, 7)
            try:
                replies = await asyncio.gather(*(
                    clients[index % 8].admit("A", index, 1, 300,
                                             name=f"c{index}")
                    for index in range(32)))
            finally:
                for other in clients[1:]:
                    await other.close()
            assert all(r["status"] in ("accepted", "rejected")
                       for r in replies)

        router, __ = run(with_router(body))
        assert router.counters["router.batched_admits"] == 32
        assert router.counters["router.batches"] \
            < router.counters["router.batched_admits"]

    def test_client_admit_batch_spans_shards(self):
        # Regression: a client-sent admit_batch must be split by owning
        # shard (A -> shard 1, B -> shard 0 by the golden map), not
        # forwarded whole to shard 0 where foreign channels would be
        # rejected as unknown.
        entries = [
            {"channel": "A", "arrival": 0, "execution": 1,
             "deadline": 300, "name": "ba1"},
            {"channel": "B", "arrival": 0, "execution": 1,
             "deadline": 300, "name": "bb1"},
            {"channel": "Zebra", "arrival": 0, "execution": 1,
             "deadline": 300, "name": "bz1"},
            {"channel": 7, "arrival": 0, "execution": 1,
             "deadline": 300, "name": "bad1"},
        ]

        async def body(router, client):
            return await client.admit_batch(entries)

        router, reply = run(with_router(body))
        assert reply["status"] == "ok"
        responses = reply["responses"]
        assert len(responses) == len(entries)
        assert responses[0]["status"] == "accepted"
        assert responses[1]["status"] == "accepted"
        assert responses[2]["status"] == "rejected"
        assert "unknown channel" in responses[2]["reason"]
        assert responses[3]["status"] == "error"
        assert router.counters["router.client_batches"] == 1

    def test_full_client_batch_keeps_the_shard_link(self):
        # A full admit_batch reaches its shard as one admit_batch line
        # whose reply outgrows the request line limit, and the shard
        # takes longer over it than a health sweep: the link must read
        # the reply, and the health loop wait for it, rather than drop
        # the shard.
        entries = [{"channel": "A", "arrival": index, "execution": 1,
                    "deadline": 300, "name": f"big-batch-entry-{index:05d}"}
                   for index in range(MAX_BATCH_REQUESTS)]

        async def body(router, client):
            return await client.admit_batch(entries)

        router, reply = run(with_router(body))
        assert {r["status"] for r in reply["responses"]} \
            <= {"accepted", "rejected"}
        assert router.counters["router.batches"] == 1
        assert "router.shard_errors" not in router.counters

    def test_client_admit_batch_down_shard_does_not_poison(self):
        # Entries owned by a dead shard get that shard's overload
        # verdict; entries owned by the live shard still get admitted.
        entries = [
            {"channel": "A", "arrival": 0, "execution": 1,
             "deadline": 300, "name": "da1"},
            {"channel": "B", "arrival": 0, "execution": 1,
             "deadline": 300, "name": "db1"},
        ]

        async def body(router, client):
            dead = router.links[1]  # A's shard by the golden map
            await dead.client.close()
            dead.client = None
            return await client.admit_batch(entries)

        __, reply = run(with_router(body, health_interval_s=30.0))
        assert reply["status"] == "ok"
        assert reply["responses"][0]["status"] == "overload"
        assert reply["responses"][1]["status"] == "accepted"

    def test_client_admit_batch_shape_errors_are_canonical(self):
        # Shape errors are worded by the canonical parser and, like
        # the single-process service, carry no id (-> unmatched).
        import json

        oversized = json.dumps({"op": "admit_batch", "requests": [
            {"channel": "A", "arrival": 0, "execution": 1,
             "deadline": 300, "name": f"o{index}"}
            for index in range(513)]})

        async def body(router, client):
            await client.send_raw(b'{"op": "admit_batch", "requests": []}\n')
            await client.send_raw(oversized.encode("utf-8") + b"\n")
            await client.ping()  # fence: both error lines are answered
            return list(client.unmatched)

        __, errors = run(with_router(body))
        assert len(errors) == 2
        assert all(e["status"] == "error" for e in errors)
        reasons = sorted(e["reason"] for e in errors)
        assert "non-empty array" in reasons[1]
        assert "exceeds 512" in reasons[0]

    def test_channels_land_on_their_rendezvous_shard(self):
        async def body(router, client):
            await client.admit("A", 0, 1, 300, name="a1")
            await client.admit("B", 0, 1, 300, name="b1")
            payloads = []
            for link in router.links:
                payloads.append(await link.client.stats())
            return payloads

        router, payloads = run(with_router(body))
        by_shard = {tuple(p["channels"]): index
                    for index, p in enumerate(payloads)}
        assert by_shard == {("B",): 0, ("A",): 1}  # golden mapping
        assert shard_for("A", 2) == 1
        assert shard_for("B", 2) == 0
        for index, payload in enumerate(payloads):
            counters = payload["counters"]
            assert counters.get("service.admits", 0) \
                + counters.get("service.rejects", 0) == 1, \
                f"shard {index} saw foreign traffic"


class TestStats:
    def test_stats_payload_keeps_the_pinned_contract(self):
        async def body(router, client):
            await client.admit("A", 0, 1, 300, name="x1")
            await client.admit("B", 0, 1, 300, name="x2")
            return await client.stats()

        __, stats = run(with_router(body))
        stats.pop("id", None)
        assert set(stats) == set(STATUS_FIELDS)
        assert stats["status"] == "ok"
        assert sorted(stats["channels"]) == ["A", "B"]
        assert stats["counters"]["router.requests"] >= 3
        assert stats["draining"] is False

    def test_stats_with_all_shards_down_keeps_queue_limit(self):
        # With every shard unreachable the pinned payload must still
        # report the router's queue capacity, not 0, and the missing
        # channels must be attributable to a router counter.
        async def body(router, client):
            for link in router.links:
                if link.client is not None:
                    await link.client.close()
                    link.client = None
            return await client.stats()

        router, stats = run(with_router(body, health_interval_s=30.0))
        assert set(stats) - {"id"} == set(STATUS_FIELDS)
        assert stats["queue_limit"] == 1024
        assert stats["channels"] == {}
        assert stats["counters"]["router.stats_shards_down"] == 2

    def test_stats_report_the_routers_queue(self):
        # The router's queue answers "queue full", so its capacity is
        # the one reported, not the sum over the shards' queues.
        async def body(router, client):
            return await client.stats()

        __, stats = run(with_router(body, queue_limit=1))
        assert len(stats["channels"]) == 2
        assert stats["queue_limit"] == 1
        assert stats["queue_depth"] == 0

    def test_aggregate_sums_and_weights(self):
        setup = load_service_setup(**SETUP_KWARGS)

        def channel_entry():
            return {field: 0 for field in CHANNEL_STATUS_FIELDS}

        payloads = [
            {"status": "ok", "workload": "bbw", "tick_us": 100,
             "engine_mode": "vectorized",
             "channels": {"B": channel_entry()},
             "counters": {"service.admits": 3}, "batches": 2,
             "mean_batch_size": 2.0, "queue_depth": 1,
             "queue_limit": 10, "draining": False},
            {"status": "ok", "workload": "bbw", "tick_us": 100,
             "engine_mode": "vectorized",
             "channels": {"A": channel_entry()},
             "counters": {"service.admits": 5}, "batches": 6,
             "mean_batch_size": 4.0, "queue_depth": 2,
             "queue_limit": 10, "draining": True},
        ]
        merged = aggregate_stats(setup, payloads, {"router.batches": 7},
                                 queue_depth=4, queue_limit=1)
        assert set(merged) == set(STATUS_FIELDS)
        assert merged["counters"]["service.admits"] == 8
        assert merged["counters"]["router.batches"] == 7
        assert merged["batches"] == 8
        # Batch-weighted mean: (2*2 + 6*4) / 8.
        assert merged["mean_batch_size"] == pytest.approx(3.5)
        # The queue fields are the router's own, not the shards' sums.
        assert merged["queue_depth"] == 4
        assert merged["queue_limit"] == 1
        assert merged["draining"] is True
        assert sorted(merged["channels"]) == ["A", "B"]


class TestResilience:
    def test_killed_shard_restarts_and_serves(self):
        async def body(router, client):
            first = await client.admit("A", 0, 1, 300, name="k1")
            assert first["status"] == "accepted"
            # Murder channel A's shard (index 1 by the golden map).
            victim = router.links[1]
            os.kill(victim.process.pid, signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 30.0
            while asyncio.get_running_loop().time() < deadline:
                reply = await client.admit("A", 1, 1, 300, name="k2")
                if reply["status"] in ("accepted", "rejected"):
                    return reply
                await asyncio.sleep(0.2)
            raise AssertionError("shard never came back")

        router, reply = run(with_router(body, restart_backoff_s=0.05))
        assert router.counters["router.shard_restarts"] >= 1
        assert router.counters.get("router.shard_abandoned", 0) == 0
        # The restarted shard is a fresh ledger: "k1" was lost with
        # the kill, so "k2" admits like a first request.
        assert reply["status"] == "accepted"

    def test_backpressure_answers_overload(self):
        # The router's bounded queue is the backpressure point, as in
        # the solo service: with one slow pass in flight and one admit
        # queued behind it, the next admit is bounced at once.
        async def body(router, client):
            real = router._shard_request

            async def slow(link, payload):
                await asyncio.sleep(0.3)
                return await real(link, payload)

            router._shard_request = slow
            second, third = await connect(router, 2)
            try:
                first = asyncio.create_task(client.admit(
                    "A", 0, 1, 300, name="bp1"))
                await asyncio.sleep(0.05)  # bp1's pass is in flight
                queued = asyncio.create_task(second.admit(
                    "A", 0, 1, 300, name="bp2"))
                await asyncio.sleep(0.05)  # bp2 fills the queue
                reply = await third.admit("A", 0, 1, 300, name="bp3")
                assert reply["status"] == "overload"
                assert reply["reason"] == "queue full"
                assert (await first)["status"] == "accepted"
                assert (await queued)["status"] == "accepted"
                recovered = await third.admit("A", 0, 1, 300, name="bp4")
                assert recovered["status"] == "accepted"
            finally:
                await second.close()
                await third.close()

        router, __ = run(with_router(body, queue_limit=1))
        assert router.counters["router.queue.rejected"] == 1
        assert router.counters["router.overload"] == 1

    def test_stop_answers_inflight_chunks_before_closing_shards(self):
        # A drain must wait for in-flight dispatch chunks: the admit
        # below is mid-round-trip when stop() begins, and still has to
        # come back with a real shard verdict, not "shard unavailable".
        async def body(router, client):
            real = router._shard_request

            async def slow(link, payload):
                await asyncio.sleep(0.3)
                return await real(link, payload)

            router._shard_request = slow
            admit = asyncio.create_task(client.admit(
                "A", 0, 1, 300, name="drain1"))
            await asyncio.sleep(0.05)  # the chunk is in flight now
            await router.stop()
            return await admit

        __, reply = run(with_router(body))
        assert reply["status"] == "accepted"

    def test_draining_router_answers_overload(self):
        async def body(router, client):
            router._draining = True
            reply = await client.admit("A", 0, 1, 300, name="d1")
            router._draining = False
            assert reply["status"] == "overload"
            assert "draining" in reply["reason"]

        run(with_router(body))

    def test_malformed_lines_answered_not_fatal(self):
        async def body(router, client):
            await client.send_raw(b"not json\n")
            await client.send_raw(b'{"op": "warp"}\n')
            reply = await client.ping()
            assert reply["status"] == "ok"
            assert len(client.unmatched) == 2
            assert all(r["status"] == "error"
                       for r in client.unmatched)

        router, __ = run(with_router(body))
        assert router.counters["router.protocol_errors"] == 2

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
from repro.distrib.router import ShardRouter, aggregate_stats
from repro.service.client import ServiceClient
from repro.service.config import load_service_setup
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
        async def body(router, client):
            replies = await asyncio.gather(*(
                client.admit("A", index, 1, 300, name=f"c{index}")
                for index in range(32)))
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
        # report the deployment's configured capacity, not 0, and the
        # missing channels must be attributable to a router counter.
        async def body(router, client):
            for link in router.links:
                if link.client is not None:
                    await link.client.close()
                    link.client = None
            return await client.stats()

        router, stats = run(with_router(body, health_interval_s=30.0))
        assert set(stats) - {"id"} == set(STATUS_FIELDS)
        assert stats["queue_limit"] == 2 * 1024
        assert stats["channels"] == {}
        assert stats["counters"]["router.stats_shards_down"] == 2

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
        merged = aggregate_stats(setup, payloads, {"router.batches": 7})
        assert set(merged) == set(STATUS_FIELDS)
        assert merged["counters"]["service.admits"] == 8
        assert merged["counters"]["router.batches"] == 7
        assert merged["batches"] == 8
        # Batch-weighted mean: (2*2 + 6*4) / 8.
        assert merged["mean_batch_size"] == pytest.approx(3.5)
        assert merged["queue_depth"] == 3
        assert merged["queue_limit"] == 20
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
        async def body(router, client):
            link = router.links[shard_for("A", 2)]
            link.inflight = router._inflight_limit  # saturate
            reply = await client.admit("A", 0, 1, 300, name="bp1")
            assert reply["status"] == "overload"
            assert "backpressure" in reply["reason"]
            link.inflight = 0
            recovered = await client.admit("A", 0, 1, 300, name="bp2")
            assert recovered["status"] == "accepted"

        router, __ = run(with_router(body))
        assert router.counters["router.backpressure"] == 1

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

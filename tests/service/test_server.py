"""End-to-end tests for the asyncio admission service.

Each test runs a real server on an ephemeral port inside
``asyncio.run`` and talks to it over TCP -- the full
socket -> parse -> queue -> batcher -> ledger -> response path.
"""

import asyncio
import json

import pytest

from repro.core.retransmission import MAX_RETRANSMISSIONS
from repro.obs import Observability
from repro.service.client import ServiceClient
from repro.service.config import load_service_setup
from repro.service.loadgen import LoadgenSpec, generate_requests
from repro.service.protocol import (
    MAX_BATCH_REQUESTS,
    MAX_LINE_BYTES,
    encode_response,
)
from repro.service.server import AdmissionService


@pytest.fixture(scope="module")
def setup():
    return load_service_setup("bbw")


def run(coroutine):
    return asyncio.run(coroutine)


async def with_service(setup, body, **service_kwargs):
    """Start a service, run ``body(service, client)``, drain, return."""
    service = AdmissionService(setup, **service_kwargs)
    host, port = await service.start(port=0)
    client = await ServiceClient.connect(host, port)
    try:
        result = await body(service, client)
    finally:
        await client.close()
        await service.stop()
    return service, result


def admit_line(name, arrival=0, deadline=100):
    return json.dumps({"op": "admit", "id": name, "channel": "A",
                       "arrival": arrival, "execution": 1,
                       "deadline": deadline})


class TestBasicOps:
    def test_ping_and_stats(self, setup):
        async def body(service, client):
            assert (await client.ping())["status"] == "ok"
            stats = await client.stats()
            assert stats["status"] == "ok"
            assert set(stats["channels"]) == {"A", "B"}
            assert stats["workload"] == "bbw"
            return stats

        run(with_service(setup, body))

    def test_admit_reject_and_release(self, setup):
        async def body(service, client):
            first = await client.admit("A", arrival=0, execution=2,
                                       deadline=100, name="j1")
            assert first["status"] == "accepted"
            assert first["window_slack"] >= 0
            # Same name again: must reject, not crash.
            again = await client.admit("A", arrival=0, execution=2,
                                       deadline=100, name="j1")
            assert again["status"] == "rejected"
            released = await client.release("A", "j1")
            assert released["status"] == "released"
            missing = await client.release("A", "j1")
            assert missing["status"] == "not_found"

        service, __ = run(with_service(setup, body))
        assert service.counters["service.admits"] == 1
        assert service.counters["service.rejects"] == 1
        assert service.counters["service.releases"] == 1

    def test_unknown_channel_rejected(self, setup):
        async def body(service, client):
            reply = await client.admit("Z", arrival=0, execution=1,
                                       deadline=100, name="j")
            assert reply["status"] == "rejected"
            assert "unknown channel" in reply["reason"]

        run(with_service(setup, body))

    def test_plan_retransmission(self, setup):
        async def body(service, client):
            reply = await client.plan_retransmission(
                {"m1": {"failure_probability": 1e-3, "instances": 20.0},
                 "m2": {"failure_probability": 1e-4, "instances": 10.0}},
                rho=0.9999)
            assert reply["status"] == "ok"
            assert reply["feasible"] is True
            assert set(reply["budgets"]) == {"m1", "m2"}

        run(with_service(setup, body))


    def test_plan_retransmission_caps_budgets(self, setup):
        # The simulator funds at most MAX_RETRANSMISSIONS copies per
        # message, so the service plans within the same cap.
        async def body(service, client):
            return await client.plan_retransmission(
                {"m1": {"failure_probability": 0.5, "instances": 1000.0}},
                rho=0.9999)

        __, reply = run(with_service(setup, body))
        assert reply["feasible"] is False
        assert reply["budgets"] == {"m1": MAX_RETRANSMISSIONS}


class TestBatching:
    def test_concurrent_admits_coalesce(self, setup):
        # Concurrency is per-connection (one line at a time each), so
        # drive the dispatch layer directly: 24 requests enqueued in
        # the same event-loop tick must share one batch pass.
        async def body():
            service = AdmissionService(setup)
            service._batcher = asyncio.create_task(service._batch_loop())
            replies = await asyncio.gather(*(
                service._dispatch(json.dumps({
                    "op": "admit", "id": f"b{index}", "channel": "A",
                    "arrival": index, "execution": 1, "deadline": 200}))
                for index in range(24)))
            service._batcher.cancel()
            assert all(r["status"] in ("accepted", "rejected")
                       for r in replies)
            return service

        service = run(body())
        assert service.counters["service.batches"] == 1
        assert service.counters["service.batch.requests"] == 24

    def test_connections_share_batches(self, setup):
        # Over real sockets, requests from different connections that
        # land in the same tick coalesce; every request still gets its
        # own decision.
        async def body(service, client):
            others = [await ServiceClient.connect(
                *service._server.sockets[0].getsockname())
                for __ in range(3)]
            clients = [client] + others
            try:
                replies = await asyncio.gather(*(
                    clients[index % len(clients)].admit(
                        "A", arrival=index, execution=1,
                        deadline=200, name=f"s{index}")
                    for index in range(24)))
            finally:
                for other in others:
                    await other.close()
            assert all(r["status"] in ("accepted", "rejected")
                       for r in replies)

        service, __ = run(with_service(setup, body))
        assert service.counters["service.batch.requests"] == 24

    def test_contended_stream_verdicts_repeat(self, setup):
        # A pipelined stream over 8 connections coalesces into passes
        # whose make-up follows socket timing; the verdict per request
        # name must not.  A stream that rejects nothing would prove
        # nothing, so this one contends for slack.
        stream = generate_requests(LoadgenSpec(
            requests=300, seed=7, mean_interarrival_ticks=1.0))

        async def body(service, client):
            host, port = service._server.sockets[0].getsockname()[:2]
            clients = [client] + [await ServiceClient.connect(host, port)
                                  for __ in range(7)]
            try:
                replies = await asyncio.gather(*(
                    clients[index % 8].admit(
                        item.channel, item.arrival, item.execution,
                        item.deadline, name=item.name)
                    for index, item in enumerate(stream)))
            finally:
                for other in clients[1:]:
                    await other.close()
            return {item.name: reply["status"]
                    for item, reply in zip(stream, replies)}

        first = run(with_service(setup, body))[1]
        again = run(with_service(setup, body))[1]
        assert again == first
        assert set(first.values()) == {"accepted", "rejected"}

    def test_batch_order_is_deterministic(self, setup):
        async def offered(service, client):
            # Fire in reverse arrival order; admission happens in
            # (arrival, deadline, name) order regardless.
            replies = await asyncio.gather(*(
                client.admit("A", arrival=100 - index, execution=1,
                             deadline=300, name=f"o{index}")
                for index in range(16)))
            return [r["status"] for r in replies]

        first = run(with_service(setup, offered))[1]
        second = run(with_service(setup, offered))[1]
        assert first == second


class TestRobustness:
    def test_malformed_lines_do_not_kill_connection(self, setup):
        async def body(service, client):
            await client.send_raw(b"this is not json\n")
            await client.send_raw(b'{"op": "warp"}\n')
            await client.send_raw(b'[]\n')
            # The connection still works afterwards.
            reply = await client.ping()
            assert reply["status"] == "ok"
            # Give the reader a tick to collect the error replies.
            await asyncio.sleep(0.05)
            errors = [r for r in client.unmatched
                      if r.get("status") == "error"]
            assert len(errors) == 3

        service, __ = run(with_service(setup, body))
        assert service.counters["service.protocol_errors"] == 3

    def test_oversize_line_answered_with_error(self, setup):
        async def body(service, client):
            huge = json.dumps({"op": "ping", "id": "x" * (70 * 1024)})
            await client.send_raw(huge.encode() + b"\n")
            await asyncio.sleep(0.1)
            assert any("too long" in str(r.get("reason", ""))
                       for r in client.unmatched)

        run(with_service(setup, body))

    def test_front_errors_are_canonical(self, setup):
        # Every malformed line is answered with the parser's reason and
        # no id; an oversize line is answered, then the connection
        # closes.  The long-name admit fits the line limit but not
        # MAX_NAME_LENGTH.
        long_admit = (b'{"op":"admit","channel":"A","arrival":1,'
                      b'"execution":1,"deadline":300,"name":"')
        long_admit += b"n" * (MAX_LINE_BYTES - len(long_admit) - 10)
        long_admit += b'"}\n'
        malformed = [b'{"op": "admit", "id": 5}\n',
                     b'{"op": "admit_batch", "requests": []}\n',
                     long_admit]

        async def body(service, client):
            for line in malformed:
                await client.send_raw(line)
            await client.ping()  # fence: every error line is answered
            host, port = service._server.sockets[0].getsockname()[:2]
            reader, writer = await asyncio.open_connection(host, port)
            huge = b'{"op": "ping", "id": "' + b"x" * (70 * 1024) + b'"}'
            writer.write(huge + b"\n")
            too_long = await reader.readline()
            closed = await reader.read()
            writer.close()
            await writer.wait_closed()
            return list(client.unmatched), too_long, closed

        service, (errors, too_long, closed) = run(with_service(setup, body))
        assert [e["status"] for e in errors] == ["error"] * len(malformed)
        assert not any("id" in error for error in errors)
        assert "'name' exceeds" in errors[-1]["reason"]
        assert b"request line too long" in too_long and closed == b""
        assert service.counters["service.protocol_errors"] \
            == len(malformed) + 1

    def test_queue_full_answers_overload(self, setup):
        async def body():
            service = AdmissionService(setup, queue_limit=1,
                                       request_timeout_s=0.05)
            # No batcher: requests sit in the queue until timeout.
            statuses = await asyncio.gather(*(
                service._dispatch(json.dumps({
                    "op": "admit", "id": f"q{index}", "channel": "A",
                    "arrival": 0, "execution": 1, "deadline": 100}))
                for index in range(4)))
            return service, [s["status"] for s in statuses]

        service, statuses = run(body())
        # One request occupied the queue (and timed out); the rest were
        # bounced immediately -- every caller got an overload answer.
        assert statuses == ["overload"] * 4
        assert service.counters["service.queue.rejected"] == 3
        assert service.counters["service.timeouts"] == 1

    def test_overload_clears_once_the_queue_drains(self, setup):
        async def body():
            service = AdmissionService(setup, queue_limit=1)
            queued = asyncio.create_task(service._dispatch(
                admit_line("bp1")))
            await asyncio.sleep(0)  # bp1 now fills the queue
            bounced = await service._dispatch(admit_line("bp2"))
            service._batcher = asyncio.create_task(service._batch_loop())
            first = await queued
            recovered = await service._dispatch(admit_line("bp3"))
            service._batcher.cancel()
            return service, [reply["status"] for reply in
                             (first, bounced, recovered)]

        service, statuses = run(body())
        assert statuses == ["accepted", "overload", "accepted"]
        assert service.counters["service.queue.rejected"] == 1

    def test_stop_answers_queued_requests(self, setup):
        # A drain begun while an admit waits in the queue still gives
        # it a ledger verdict.
        async def body(service, client):
            admit = asyncio.create_task(client.admit(
                "A", arrival=0, execution=1, deadline=100, name="drain1"))
            while not service._queue.qsize():
                await asyncio.sleep(0)
            await service.stop()
            return await admit

        __, reply = run(with_service(setup, body))
        assert reply["status"] == "accepted"

    def test_drain_refuses_new_work_but_answers(self, setup):
        async def body(service, client):
            accepted = await client.admit("A", arrival=0, execution=1,
                                          deadline=100, name="early")
            assert accepted["status"] == "accepted"
            await service.stop()
            reply = await service._dispatch(json.dumps({
                "op": "admit", "id": "late", "channel": "A",
                "arrival": 0, "execution": 1, "deadline": 100}))
            assert reply["status"] == "overload"
            assert reply["reason"] == "draining"

        run(with_service(setup, body))


class TestStats:
    def test_stats_report_the_queue_under_load(self, setup):
        # queue_depth counts requests waiting for a pass; queue_limit
        # is the bound that answers "queue full".
        async def body():
            service = AdmissionService(setup, queue_limit=4)
            waiting = [asyncio.create_task(service._dispatch(
                admit_line(f"w{index}", arrival=index)))
                for index in range(3)]
            await asyncio.sleep(0)  # all three are queued
            loaded = service._stats_response()
            service._batcher = asyncio.create_task(service._batch_loop())
            replies = await asyncio.gather(*waiting)
            idle = service._stats_response()
            service._batcher.cancel()
            return loaded, idle, replies

        loaded, idle, replies = run(body())
        assert (loaded["queue_depth"], loaded["queue_limit"]) == (3, 4)
        assert (idle["queue_depth"], idle["queue_limit"]) == (0, 4)
        assert idle["batches"] == 1
        assert [r["status"] for r in replies] == ["accepted"] * 3


class TestReconciliation:
    def test_reconcile_runs_and_stays_clean(self, setup):
        async def body(service, client):
            for index in range(30):
                await client.admit("A", arrival=index * 5, execution=1,
                                   deadline=300, name=f"r{index}")
            return None

        service, __ = run(with_service(setup, body, reconcile_every=4))
        # Per-cadence passes plus the final drain pass all ran clean.
        assert service.counters["service.reconcile.runs"] >= 2
        assert "service.reconcile.divergence" not in service.counters

    def test_drain_always_reconciles_once_more(self, setup):
        async def body(service, client):
            await client.admit("A", arrival=0, execution=1,
                               deadline=100, name="one")

        service, __ = run(with_service(setup, body, reconcile_every=64))
        assert service.counters["service.reconcile.runs"] == 1

    def test_sampled_audit_agrees(self, setup):
        async def body(service, client):
            for index in range(8):
                await client.admit("A", arrival=index * 10, execution=1,
                                   deadline=400, name=f"a{index}")

        service, __ = run(with_service(setup, body, audit_every=2))
        assert service.counters["service.audit.runs"] >= 1
        assert "service.audit.disagreements" not in service.counters


class TestObservability:
    def test_counters_mirrored_into_obs(self, setup):
        obs = Observability()

        async def body(service, client):
            await client.admit("A", arrival=0, execution=1,
                               deadline=100, name="m")
            await client.ping()

        run(with_service(setup, body, obs=obs))
        value = obs.registry.counter_value
        assert value("service.requests") == 2
        assert value("service.admits") == 1
        assert value("service.batches") >= 1
        assert value("service.A.admitted") == 1


class TestAdmitBatch:
    def entries(self, count, channel="A", deadline=300):
        return [{"channel": channel, "name": f"ab{index}",
                 "arrival": index, "execution": 1, "deadline": deadline}
                for index in range(count)]

    def test_batch_matches_individual_admits(self, setup):
        entries = self.entries(8)

        async def batched(service, client):
            reply = await client.admit_batch(entries)
            assert reply["status"] == "ok"
            return reply["responses"]

        async def individual(service, client):
            replies = await asyncio.gather(*(
                client.admit(e["channel"], e["arrival"], e["execution"],
                             e["deadline"], name=e["name"])
                for e in entries))
            return list(replies)

        batch_replies = run(with_service(setup, batched))[1]
        solo_replies = run(with_service(setup, individual))[1]
        # Response ids differ (solo replies echo per-request ids);
        # everything else must be byte-identical.
        for reply in solo_replies:
            reply.pop("id", None)
        assert batch_replies == solo_replies

    def test_batch_entries_share_one_pass(self, setup):
        async def body(service, client):
            reply = await client.admit_batch(self.entries(12))
            assert len(reply["responses"]) == 12
            return reply

        service, __ = run(with_service(setup, body))
        assert service.counters["service.batches"] == 1
        assert service.counters["service.batch_admit.entries"] == 12

    def test_full_batch_reply_is_readable(self, setup):
        # The reply echoes every entry and adds its verdict, so it is
        # longer than the request line limit the batch itself keeps.
        entries = [dict(entry, name=f"big-batch-entry-{index:05d}")
                   for index, entry in enumerate(self.entries(512))]

        async def body(service, client):
            return await client.admit_batch(entries)

        __, reply = run(with_service(setup, body))
        assert len(encode_response(reply)) > MAX_LINE_BYTES
        assert len(reply["responses"]) == 512
        assert {r["status"] for r in reply["responses"]} \
            <= {"accepted", "rejected"}

    def test_invalid_entry_isolated_with_position_kept(self, setup):
        entries = self.entries(3)
        entries[1] = {"channel": "A", "name": "bad"}  # missing ints

        async def body(service, client):
            return await client.admit_batch(entries)

        service, reply = run(with_service(setup, body))
        responses = reply["responses"]
        assert len(responses) == 3
        assert responses[0]["status"] in ("accepted", "rejected")
        assert responses[1]["status"] == "error"
        assert responses[2]["status"] in ("accepted", "rejected")
        assert service.counters["service.protocol_errors"] == 1

    def test_unknown_channel_rejected_positionally(self, setup):
        entries = self.entries(2)
        entries[1]["channel"] = "Z"

        async def body(service, client):
            return await client.admit_batch(entries)

        __, reply = run(with_service(setup, body))
        assert reply["responses"][0]["status"] in ("accepted",
                                                   "rejected")
        second = reply["responses"][1]
        assert second["status"] == "rejected"
        assert "unknown channel" in second["reason"]

    def test_batch_interleaves_with_individual_admits(self, setup):
        # A batch and plain admits in the same tick admit in global
        # (arrival, deadline, name) order -- the batch is flattened
        # into the pass, not handled as a privileged unit.
        async def body(service, client):
            other = await ServiceClient.connect(
                *service._server.sockets[0].getsockname())
            try:
                batch, solo = await asyncio.gather(
                    client.admit_batch(self.entries(6)),
                    other.admit("A", arrival=3, execution=1,
                                deadline=300, name="zz-solo"))
            finally:
                await other.close()
            assert batch["status"] == "ok"
            assert solo["status"] in ("accepted", "rejected")

        service, __ = run(with_service(setup, body))
        assert service.counters["service.admits"] >= 1

    def test_batch_spans_channels(self, setup):
        # One batch reaches both ledgers; an unknown channel and an
        # invalid entry are answered in place.
        entries = self.entries(1) + self.entries(1, channel="B")
        entries += [dict(entries[0], channel="Zebra", name="bz1"),
                    dict(entries[0], channel=7, name="bad1")]

        async def body(service, client):
            return await client.admit_batch(entries)

        service, reply = run(with_service(setup, body))
        statuses = [r["status"] for r in reply["responses"]]
        assert statuses == ["accepted", "accepted", "rejected", "error"]
        assert "unknown channel" in reply["responses"][2]["reason"]
        assert [r["channel"] for r in reply["responses"][:2]] == ["A", "B"]
        assert service.counters["service.client_batches"] == 1

    def test_shape_errors_are_canonical(self, setup):
        # A batch whose shape is wrong is one protocol error, worded
        # by the parser, with no id.
        oversized = json.dumps({"op": "admit_batch", "requests":
                                self.entries(MAX_BATCH_REQUESTS + 1)})

        async def body(service, client):
            await client.send_raw(
                b'{"op": "admit_batch", "requests": []}\n')
            await client.send_raw(oversized.encode("utf-8") + b"\n")
            await client.ping()  # fence: both error lines are answered
            return list(client.unmatched)

        service, errors = run(with_service(setup, body))
        assert [e["status"] for e in errors] == ["error", "error"]
        assert "non-empty array" in errors[0]["reason"]
        assert f"exceeds {MAX_BATCH_REQUESTS}" in errors[1]["reason"]
        assert "service.client_batches" not in service.counters

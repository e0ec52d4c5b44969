"""Tests for the deterministic load generator."""

import asyncio

import pytest

from repro.service.config import load_service_setup
from repro.service.loadgen import (
    CHANNELS,
    DEADLINE_TICKS,
    EXECUTION_MAX,
    EXECUTION_MIN,
    LoadgenReport,
    LoadgenSpec,
    generate_requests,
    percentile,
    run_loadgen,
)
from repro.service.server import AdmissionService


class TestStreamDeterminism:
    def test_same_spec_same_stream(self):
        spec = LoadgenSpec(requests=200, seed=11)
        assert generate_requests(spec) == generate_requests(spec)

    def test_seed_changes_stream(self):
        base = LoadgenSpec(requests=200, seed=11)
        other = LoadgenSpec(requests=200, seed=12)
        assert generate_requests(base) != generate_requests(other)

    def test_stream_shape(self):
        spec = LoadgenSpec(requests=100, seed=3)
        stream = generate_requests(spec)
        assert len(stream) == 100
        assert {item.channel for item in stream} == set(CHANNELS)
        assert {item.execution for item in stream} \
            == set(range(EXECUTION_MIN, EXECUTION_MAX + 1))
        assert all(item.deadline == DEADLINE_TICKS for item in stream)
        arrivals = [item.arrival for item in stream]
        assert arrivals == sorted(arrivals)
        assert len({item.name for item in stream}) == 100

    def test_release_fraction_zero_means_no_releases(self):
        stream = generate_requests(LoadgenSpec(requests=50, seed=1))
        assert not any(item.release_after for item in stream)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadgenSpec(requests=0)
        with pytest.raises(ValueError):
            LoadgenSpec(requests=1, mean_interarrival_ticks=0.0)
        with pytest.raises(ValueError):
            LoadgenSpec(requests=1, release_fraction=1.5)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_singleton(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 0) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestEndToEnd:
    def test_no_drops_and_decisions_for_all(self):
        setup = load_service_setup("bbw")
        spec = LoadgenSpec(requests=150, seed=5,
                           mean_interarrival_ticks=6.0,
                           release_fraction=0.2)

        async def body():
            service = AdmissionService(setup, reconcile_every=8)
            host, port = await service.start(port=0)
            report = await run_loadgen(host, port, spec,
                                       concurrency=32, connections=3)
            await service.stop()
            return service, report

        service, report = asyncio.run(body())
        # The no-drop guarantee: every request got a decision.
        assert report.dropped == 0
        assert sum(report.replies.values()) == spec.requests
        assert report.errors == 0
        assert report.accepted > 0
        assert 0.0 < report.acceptance_ratio <= 1.0
        assert report.latency_ms["p50"] <= report.latency_ms["p99"]
        assert report.releases_confirmed <= report.releases_sent
        # Server-side books agree with the client's view.
        assert (service.counters["service.admits"]
                == report.accepted)
        assert "service.reconcile.divergence" not in service.counters

    def test_report_row_is_flat_json(self):
        setup = load_service_setup("bbw")
        spec = LoadgenSpec(requests=40, seed=9)

        async def body():
            service = AdmissionService(setup)
            host, port = await service.start(port=0)
            report = await run_loadgen(host, port, spec)
            await service.stop()
            return report

        row = asyncio.run(body()).to_row()
        assert row["requests"] == 40
        assert row["dropped"] == 0
        assert set(row) >= {"accepted", "rejected", "overload",
                            "acceptance_ratio", "throughput_rps",
                            "p50_ms", "p99_ms", "wall_s"}


class TestPercentileEdges:
    def test_single_sample_is_every_percentile(self):
        for q in (0, 50, 90, 99, 100):
            assert percentile([7.5], q) == 7.5

    def test_two_samples_nearest_rank(self):
        values = [10.0, 20.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 50) == 10.0
        assert percentile(values, 51) == 20.0
        assert percentile(values, 99) == 20.0
        assert percentile(values, 100) == 20.0

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError, match="q must be"):
            percentile([1.0], 100.1)

    def test_unsorted_input_is_sorted_first(self):
        assert percentile([30.0, 10.0, 20.0], 50) == 20.0


class TestReportEdges:
    def test_empty_latency_report_row(self):
        # An all-dropped run has no latency samples at all; the row
        # must still be emittable (zeros, not KeyErrors or NaNs).
        report = LoadgenReport(
            requests=5, replies={}, dropped=5, wall_s=0.1,
            latency_ms={}, releases_sent=0, releases_confirmed=0)
        row = report.to_row()
        assert row["dropped"] == 5
        assert row["p50_ms"] == 0.0
        assert row["p99_ms"] == 0.0
        assert row["acceptance_ratio"] == 0.0

    def test_zero_wall_clock_throughput(self):
        report = LoadgenReport(
            requests=1, replies={"accepted": 1}, dropped=0, wall_s=0.0,
            latency_ms={"p50": 1.0}, releases_sent=0,
            releases_confirmed=0)
        assert report.throughput_rps == 0.0

    def test_all_connections_refused_counts_drops(self):
        # A server that accepts and instantly closes: every request
        # dies with ConnectionError, none ever gets a latency sample.
        async def body():
            async def slam(reader, writer):
                writer.close()

            server = await asyncio.start_server(slam, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_loadgen(
                    "127.0.0.1", port, LoadgenSpec(requests=6, seed=3),
                    concurrency=2, connections=2)
            finally:
                server.close()
                await server.wait_closed()

        report = asyncio.run(body())
        assert report.dropped == 6
        assert report.replies == {}
        assert report.latency_ms == {}
        assert report.to_row()["p50_ms"] == 0.0

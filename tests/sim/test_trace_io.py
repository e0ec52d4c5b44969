"""Unit tests for trace export/import and per-message statistics."""

import io

import pytest

from repro.sim.trace import TraceRecorder, TransmissionOutcome
from repro.sim.trace_io import (
    export_csv,
    export_jsonl,
    import_csv,
    per_message_statistics,
)

from tests.sim.test_trace import make_record


@pytest.fixture
def sample_trace():
    trace = TraceRecorder()
    trace.note_instance("m1", 0, 50, 10_000)
    trace.note_instance("m1", 1, 500, 10_500)
    trace.note_instance("m2", 0, 50, 200)
    trace.record(make_record(message_id="m1", instance=0, start=100))
    trace.record(make_record(message_id="m1", instance=0, start=200,
                             retransmission=True))
    trace.record(make_record(message_id="m1", instance=1, start=600,
                             generation=500, deadline=10_500))
    trace.record(make_record(message_id="m2", instance=0, start=300,
                             deadline=200,
                             outcome=TransmissionOutcome.CORRUPTED))
    return trace


class TestCsvRoundTrip:
    def test_export_counts_rows(self, sample_trace):
        buffer = io.StringIO()
        assert export_csv(sample_trace, buffer) == 4

    def test_round_trip_preserves_records(self, sample_trace):
        buffer = io.StringIO()
        export_csv(sample_trace, buffer)
        buffer.seek(0)
        rebuilt = import_csv(buffer)
        assert len(rebuilt) == len(sample_trace)
        for original, imported in zip(sample_trace, rebuilt):
            assert original == imported

    def test_round_trip_preserves_metrics(self, sample_trace):
        buffer = io.StringIO()
        export_csv(sample_trace, buffer)
        buffer.seek(0)
        rebuilt = import_csv(buffer)
        assert rebuilt.delivered_count() == sample_trace.delivered_count()
        assert rebuilt.latencies() == sample_trace.latencies()

    def test_empty_trace(self):
        buffer = io.StringIO()
        export_csv(TraceRecorder(), buffer)
        buffer.seek(0)
        rebuilt = import_csv(buffer)
        assert len(rebuilt) == 0


class TestJsonl:
    def test_line_per_record(self, sample_trace):
        buffer = io.StringIO()
        count = export_jsonl(sample_trace, buffer)
        lines = [line for line in buffer.getvalue().splitlines() if line]
        assert count == 4
        assert len(lines) == 4

    def test_lines_parse(self, sample_trace):
        import json
        buffer = io.StringIO()
        export_jsonl(sample_trace, buffer)
        for line in buffer.getvalue().splitlines():
            row = json.loads(line)
            assert row["outcome"] in ("delivered", "corrupted", "dropped")


class TestPerMessageStatistics:
    def test_aggregates(self, sample_trace):
        stats = {s.message_id: s
                 for s in per_message_statistics(sample_trace)}
        m1 = stats["m1"]
        assert m1.instances == 2
        assert m1.delivered == 2
        assert m1.attempts == 3
        assert m1.retransmissions == 1
        assert m1.missed == 0
        m2 = stats["m2"]
        assert m2.instances == 1
        assert m2.delivered == 0
        assert m2.corrupted == 1
        assert m2.missed == 1
        assert m2.delivery_ratio == 0.0

    def test_latency_statistics(self, sample_trace):
        stats = {s.message_id: s
                 for s in per_message_statistics(sample_trace)}
        # m1#0: delivered at 140, generated 50 -> 90.
        # m1#1: delivered at 640, generated 500 -> 140.
        assert stats["m1"].mean_latency_mt == pytest.approx(115.0)
        assert stats["m1"].max_latency_mt == 140

    def test_round_trip_same_statistics(self, sample_trace):
        buffer = io.StringIO()
        export_csv(sample_trace, buffer)
        buffer.seek(0)
        rebuilt = import_csv(buffer)
        assert per_message_statistics(rebuilt) == \
            per_message_statistics(sample_trace)

    def test_sorted_output(self, sample_trace):
        ids = [s.message_id for s in per_message_statistics(sample_trace)]
        assert ids == sorted(ids)

    def test_from_simulation(self, small_params, tiny_packing):
        from repro.core.coefficient import CoEfficientPolicy
        from repro.faults.ber import BitErrorRateModel
        from repro.protocol.cluster import Cluster
        from repro.sim.rng import RngStream

        policy = CoEfficientPolicy(
            tiny_packing, BitErrorRateModel(ber_channel_a=0.0))
        cluster = Cluster(
            params=small_params, policy=policy,
            sources=tiny_packing.build_sources(RngStream(1, "io")))
        cluster.run_for_ms(10.0)
        stats = per_message_statistics(cluster.trace)
        assert stats
        total_instances = sum(s.instances for s in stats)
        assert total_instances == cluster.trace.instance_count()

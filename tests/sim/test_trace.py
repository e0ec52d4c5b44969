"""Unit tests for the transmission trace recorder."""

import hashlib
import io
import pickle

import pytest

from repro.experiments.figures import case_study_params
from repro.experiments.runner import run_experiment
from repro.protocol.frame import Frame, PendingFrame
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import (FrameRecord, TraceRecorder, TransmissionOutcome,
                             canonical_trace_bytes, trace_digest)
from repro.workloads.bbw import bbw_signals


def make_record(message_id="m", instance=0, channel="A", start=100,
                duration=40, outcome=TransmissionOutcome.DELIVERED,
                generation=50, deadline=500, chunk=0, segment="static",
                retransmission=False, payload=256, bits=320, slot=1,
                cycle=0):
    return FrameRecord(
        message_id=message_id, instance=instance, channel=channel,
        slot_id=slot, cycle=cycle, start=start, end=start + duration,
        bits=bits, payload_bits=payload, segment=segment, outcome=outcome,
        is_retransmission=retransmission, generation_time=generation,
        deadline=deadline, chunk=chunk,
    )


class TestInstanceTracking:
    def test_empty_trace(self):
        trace = TraceRecorder()
        assert len(trace) == 0
        assert trace.instance_count() == 0
        assert trace.delivered_count() == 0
        assert trace.last_delivery_time() is None

    def test_note_then_deliver(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, generation_time=50, deadline=500)
        assert trace.instance_count() == 1
        assert trace.delivered_count() == 0
        trace.record(make_record())
        assert trace.delivered_count() == 1
        assert trace.delivery_time("m", 0) == 140

    def test_note_idempotent(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 500)
        trace.note_instance("m", 0, 60, 600)  # ignored duplicate
        assert trace.instance_count() == 1

    def test_note_rejects_zero_chunks(self):
        trace = TraceRecorder()
        with pytest.raises(ValueError):
            trace.note_instance("m", 0, 0, 10, chunks=0)

    def test_corrupted_does_not_deliver(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 500)
        trace.record(make_record(outcome=TransmissionOutcome.CORRUPTED))
        assert trace.delivered_count() == 0
        assert trace.delivery_time("m", 0) is None

    def test_first_delivery_wins(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 500)
        trace.record(make_record(start=200))
        trace.record(make_record(start=100))  # earlier redundant copy
        assert trace.delivery_time("m", 0) == 140

    def test_instance_without_note_is_registered(self):
        trace = TraceRecorder()
        trace.record(make_record())
        assert trace.instance_count() == 1


class TestChunkedInstances:
    def test_partial_chunks_not_delivered(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 500, chunks=2)
        trace.record(make_record(chunk=0))
        assert trace.delivered_count() == 0

    def test_all_chunks_deliver(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 500, chunks=2)
        trace.record(make_record(chunk=0, start=100))
        trace.record(make_record(chunk=1, start=200))
        assert trace.delivered_count() == 1
        # Delivery time is the LAST chunk's landing.
        assert trace.delivery_time("m", 0) == 240

    def test_duplicate_chunk_does_not_complete(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 500, chunks=2)
        trace.record(make_record(chunk=0, start=100))
        trace.record(make_record(chunk=0, start=200))
        assert trace.delivered_count() == 0


class TestMetricsQueries:
    def test_latencies(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 500)
        trace.record(make_record(start=100, duration=40))
        assert trace.latencies() == [("m", 0, 90)]

    def test_missed_never_delivered(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 500)
        assert trace.missed_instances() == [("m", 0)]

    def test_missed_late_delivery(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 120)
        trace.record(make_record(start=100, duration=40))  # ends 140 > 120
        assert trace.missed_instances() == [("m", 0)]

    def test_on_time_not_missed(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 50, 200)
        trace.record(make_record(start=100, duration=40))
        assert trace.missed_instances() == []

    def test_last_delivery_time(self):
        trace = TraceRecorder()
        trace.note_instance("m", 0, 0, 10_000)
        trace.note_instance("m", 1, 0, 10_000)
        trace.record(make_record(instance=0, start=100))
        trace.record(make_record(instance=1, start=300))
        assert trace.last_delivery_time() == 340

    def test_attempts_for(self):
        trace = TraceRecorder()
        trace.record(make_record(start=0))
        trace.record(make_record(start=100,
                                 outcome=TransmissionOutcome.CORRUPTED))
        trace.record(make_record(message_id="other", start=200))
        assert trace.attempts_for("m") == 2

    def test_records_for_segment(self):
        trace = TraceRecorder()
        trace.record(make_record(segment="static", start=0))
        trace.record(make_record(segment="dynamic", start=100))
        assert len(trace.records_for_segment("static")) == 1
        assert len(trace.records_for_segment("dynamic")) == 1


class TestOverlapVerification:
    def test_no_overlap_clean(self):
        trace = TraceRecorder()
        trace.record(make_record(start=0, duration=40))
        trace.record(make_record(start=40, duration=40))
        assert trace.verify_no_channel_overlap() == []

    def test_overlap_detected(self):
        trace = TraceRecorder()
        trace.record(make_record(start=0, duration=40))
        trace.record(make_record(start=30, duration=40))
        violations = trace.verify_no_channel_overlap()
        assert len(violations) == 1
        assert "overlaps" in violations[0]

    def test_cross_channel_overlap_allowed(self):
        trace = TraceRecorder()
        trace.record(make_record(channel="A", start=0, duration=40))
        trace.record(make_record(channel="B", start=0, duration=40))
        assert trace.verify_no_channel_overlap() == []


def make_pending(message_id="m", instance=0, generation=50, deadline=500,
                 payload=256, chunk=0, chunk_count=1, attempt=0):
    frame = Frame(frame_id=1, message_id=message_id, payload_bits=payload,
                  producer_ecu=0, chunk=chunk, chunk_count=chunk_count)
    return PendingFrame(frame=frame, instance=instance,
                        generation_time_mt=generation, deadline_mt=deadline,
                        priority=0, attempt=attempt)


def interleaved_trace():
    """``record()`` and ``record_batch()`` calls, alternating.

    Returns the trace and the records each call stands for, in call
    order.
    """
    trace = TraceRecorder(protocol="flexray")
    lane_names = ("A", "B")
    expected = []
    first = make_record(message_id="s", start=0, slot=1, cycle=0,
                        outcome=TransmissionOutcome.CORRUPTED)
    trace.record(first)
    expected.append(first)
    retry = make_pending("s", attempt=1, generation=0, deadline=900)
    fresh = make_pending("t", instance=3, generation=10, deadline=800,
                         chunk=1, chunk_count=2)
    plan = [(1, 2, 100, 140, retry), (0, 3, 150, 190, fresh)]
    trace.record_batch(plan, 1, "static", lane_names, [320, 320],
                       [False, True])
    expected += [
        FrameRecord("s", 0, "B", 2, 1, 100, 140, 320, 256, "static",
                    TransmissionOutcome.DELIVERED, True, 0, 900, 0),
        FrameRecord("t", 3, "A", 3, 1, 150, 190, 320, 256, "static",
                    TransmissionOutcome.CORRUPTED, False, 10, 800, 1),
    ]
    dropped = make_record(message_id="u", start=200, segment="dynamic",
                          outcome=TransmissionOutcome.DROPPED)
    trace.record(dropped)
    expected.append(dropped)
    trace.record_batch([(0, 12, 300, 340, fresh)], 2, "dynamic",
                       lane_names, [320], [False])
    expected.append(FrameRecord(
        "t", 3, "A", 12, 2, 300, 340, 320, 256, "dynamic",
        TransmissionOutcome.DELIVERED, False, 10, 800, 1))
    return trace, expected


def recorded_one_by_one(records, protocol="flexray"):
    trace = TraceRecorder(protocol=protocol)
    for record in records:
        trace.record(record)
    return trace


class TestBlockRecording:
    def test_interleaved_calls_iterate_in_call_order(self):
        trace, expected = interleaved_trace()
        assert list(trace) == expected
        assert trace.records == expected
        assert len(trace) == len(expected)

    def test_blocks_equal_one_record_per_entry(self):
        """A block updates instance state and the running reduction
        exactly as recording its entries one by one would."""
        trace, expected = interleaved_trace()
        reference = recorded_one_by_one(expected)
        assert trace.reduction() == reference.reduction()
        assert trace.instance_summaries() == reference.instance_summaries()
        assert trace.delivered_count() == reference.delivered_count()
        assert trace_digest(trace) == trace_digest(reference)

    def test_running_reduction(self):
        trace, __ = interleaved_trace()
        occupied, useful, corrupted, retransmissions = trace.reduction()
        assert occupied == 40 * 5
        # "s" chunk 0 and "t" chunk 1 each deliver once.
        assert useful == 40 * 256 / 320 + 40 * 256 / 320
        assert corrupted == 2
        assert retransmissions == 1

    def test_digest_streams_the_canonical_bytes(self):
        trace, __ = interleaved_trace()
        assert trace_digest(trace) == hashlib.sha256(
            canonical_trace_bytes(trace)).hexdigest()
        empty = TraceRecorder()
        assert trace_digest(empty) == hashlib.sha256(
            canonical_trace_bytes(empty)).hexdigest()


class _ClassRecorder(pickle.Unpickler):
    """Unpickler noting every class or function a pickle references."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data))
        self.referenced = set()

    def find_class(self, module, name):
        self.referenced.add((module, name))
        return super().find_class(module, name)


def unpickle_noting_classes(data):
    unpickler = _ClassRecorder(data)
    return unpickler.load(), unpickler.referenced


@pytest.fixture(scope="module")
def vectorized_run():
    """A faulty CoEfficient run on the batch engine (blocks and all)."""
    params = case_study_params("bbw")
    return run_experiment(engine_mode="vectorized", params=params,
                          scheduler="coefficient", periodic=bbw_signals(),
                          ber=1e-4, seed=7, duration_ms=None,
                          instance_limit=4)


class TestPickledTrace:
    def test_round_trip(self, vectorized_run):
        trace = vectorized_run.cluster.trace
        clone = pickle.loads(pickle.dumps(trace))
        assert list(clone) == list(trace)
        assert trace_digest(clone) == trace_digest(trace)
        assert len(clone) == len(trace)
        assert clone.delivered_count() == trace.delivered_count()
        horizon = vectorized_run.metrics.horizon_mt
        params = vectorized_run.cluster.params
        collector = MetricsCollector(params.gd_macrotick_us,
                                     channel_count=params.channel_count)
        assert collector.compute(clone, horizon) == \
            collector.compute(trace, horizon) == vectorized_run.metrics

    def test_pickle_references_no_engine_objects(self, vectorized_run):
        trace = vectorized_run.cluster.trace
        __, referenced = unpickle_noting_classes(pickle.dumps(trace))
        names = {name for __, name in referenced}
        assert not names & {"PendingFrame", "Frame", "FrameKind"}
        assert not any(module.startswith("repro.protocol")
                       for module, __ in referenced)

    def test_records_appended_after_unpickling_keep_order(self):
        trace, expected = interleaved_trace()
        clone = pickle.loads(pickle.dumps(trace))
        later = make_record(message_id="v", start=500, cycle=3)
        clone.record(later)
        retry = make_pending("s", attempt=2, generation=0, deadline=900)
        clone.record_batch([(0, 4, 600, 640, retry)], 4, "static",
                           ("A", "B"), [320], [False])
        expected += [later, FrameRecord(
            "s", 0, "A", 4, 4, 600, 640, 320, 256, "static",
            TransmissionOutcome.DELIVERED, True, 0, 900, 0)]
        assert list(clone) == expected
        assert len(clone) == len(expected)
        reference = recorded_one_by_one(expected)
        assert clone.reduction() == reference.reduction()
        assert clone.delivered_count() == reference.delivered_count()
        # A second round trip keeps the same records.
        assert list(pickle.loads(pickle.dumps(clone))) == expected

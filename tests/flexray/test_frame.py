"""Unit tests for the FlexRay frame model."""

import pickle

import pytest

from repro.protocol.frame import Frame, FrameKind, PendingFrame, frame_duration_mt
from repro.flexray.params import FRAME_OVERHEAD_BITS, MAX_PAYLOAD_BITS
from repro.protocol.frame import HARD_MAX_PAYLOAD_BITS


def make_frame(**overrides):
    fields = dict(frame_id=1, message_id="m", payload_bits=256,
                  producer_ecu=0)
    fields.update(overrides)
    return Frame(**fields)


def make_pending(**overrides):
    fields = dict(frame=make_frame(), instance=0, generation_time_mt=100,
                  deadline_mt=1000, priority=5)
    fields.update(overrides)
    return PendingFrame(**fields)


class TestFrameDuration:
    def test_includes_overhead(self, small_params):
        assert frame_duration_mt(100, small_params) == \
            small_params.transmission_mt(100 + FRAME_OVERHEAD_BITS)

    def test_zero_payload(self, small_params):
        assert frame_duration_mt(0, small_params) == \
            small_params.transmission_mt(FRAME_OVERHEAD_BITS)

    def test_rejects_negative(self, small_params):
        with pytest.raises(ValueError):
            frame_duration_mt(-1, small_params)

    def test_rejects_oversized(self, small_params):
        with pytest.raises(ValueError):
            frame_duration_mt(MAX_PAYLOAD_BITS + 1, small_params)


class TestFrameValidation:
    def test_valid(self):
        assert make_frame().total_bits == 256 + FRAME_OVERHEAD_BITS

    @pytest.mark.parametrize("overrides", [
        {"frame_id": 0},
        {"payload_bits": 0},
        {"payload_bits": HARD_MAX_PAYLOAD_BITS + 1},
        {"cycle_repetition": 3},
        {"cycle_repetition": 128},
        {"base_cycle": 1},                     # >= repetition of 1
        {"base_cycle": 2, "cycle_repetition": 2},
        {"chunk": 1},                          # >= chunk_count of 1
        {"base_flexibility": -1},
    ])
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            make_frame(**overrides)

    def test_cycle_multiplexing(self):
        frame = make_frame(base_cycle=1, cycle_repetition=4)
        fires = [cycle for cycle in range(12) if frame.sends_in_cycle(cycle)]
        assert fires == [1, 5, 9]

    def test_repetition_one_fires_always(self):
        frame = make_frame()
        assert all(frame.sends_in_cycle(cycle) for cycle in range(10))

    def test_duration(self, small_params):
        frame = make_frame(payload_bits=100)
        assert frame.duration_mt(small_params) == \
            frame_duration_mt(100, small_params)


class TestPendingFrame:
    def test_delegation(self):
        pending = make_pending()
        assert pending.message_id == "m"
        assert pending.payload_bits == 256
        assert pending.total_bits == 256 + FRAME_OVERHEAD_BITS

    def test_rejects_deadline_before_generation(self):
        with pytest.raises(ValueError):
            make_pending(deadline_mt=50)

    def test_rejects_negative_instance(self):
        with pytest.raises(ValueError):
            make_pending(instance=-1)

    def test_not_retransmission_initially(self):
        assert make_pending().is_retransmission is False

    def test_retry_marks_retransmission(self):
        pending = make_pending()
        retry = pending.retry(now_mt=500)
        assert retry.is_retransmission is True
        assert retry.kind is FrameKind.RETRANSMISSION
        assert retry.attempt == 1
        # Generation and deadline are preserved (latency is measured
        # from first production).
        assert retry.generation_time_mt == pending.generation_time_mt
        assert retry.deadline_mt == pending.deadline_mt

    def test_retry_chain_increments_attempts(self):
        pending = make_pending()
        second = pending.retry(0).retry(0)
        assert second.attempt == 2

    def test_sequence_monotone(self):
        first = make_pending()
        second = make_pending()
        assert second.sequence > first.sequence

    def test_sequence_monotone_across_retries_and_positional_builds(self):
        frame = make_frame()
        made = [make_pending(), PendingFrame(frame, 0, 100, 1000, 5)]
        made.append(made[0].retry(0))
        made.append(make_pending(instance=3))
        sequences = [pending.sequence for pending in made]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_rejects_negative_attempt(self):
        with pytest.raises(ValueError):
            make_pending(attempt=-1)

    def test_rejects_attribute_assignment(self):
        pending = make_pending()
        with pytest.raises(AttributeError):
            pending.priority = 1
        with pytest.raises(AttributeError):
            pending.note = "x"
        assert pending.priority == 5

    def test_replace_revalidates(self):
        pending = make_pending()
        assert pending._replace(priority=1).priority == 1
        with pytest.raises(ValueError):
            pending._replace(deadline_mt=0)

    def test_keyword_and_positional_construction_agree(self):
        frame = make_frame()
        by_keyword = PendingFrame(
            frame=frame, instance=2, generation_time_mt=10, deadline_mt=90,
            priority=3, kind=FrameKind.RETRANSMISSION, attempt=1,
            sequence=7)
        positional = PendingFrame(frame, 2, 10, 90, 3,
                                  FrameKind.RETRANSMISSION, 1, 7)
        assert by_keyword == positional
        assert hash(by_keyword) == hash(positional)
        assert by_keyword != positional._replace(sequence=8)

    def test_pickle_round_trip_keeps_value_and_sequence(self):
        pending = make_pending().retry(0)
        restored = pickle.loads(pickle.dumps(pending))
        assert type(restored) is PendingFrame
        assert restored == pending
        assert restored.sequence == pending.sequence
        assert restored.is_retransmission

    def test_queue_key_priority_order(self):
        urgent = make_pending(priority=1)
        lax = make_pending(priority=9)
        assert urgent.queue_key() < lax.queue_key()

    def test_queue_key_fifo_within_priority(self):
        first = make_pending(priority=5)
        second = make_pending(priority=5)
        assert first.queue_key() < second.queue_key()

    def test_slack_at(self, small_params):
        pending = make_pending(generation_time_mt=0, deadline_mt=1000)
        assert pending.slack_at(now_mt=800, duration_mt=100) == 100
        assert pending.slack_at(now_mt=950, duration_mt=100) == -50

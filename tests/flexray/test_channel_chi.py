"""Unit tests for channels and the controller-host interface buffers."""

import pytest

from repro.protocol.channel import Channel, ChannelSet
from repro.protocol.chi import PriorityOutputQueue, StaticBuffer

from tests.flexray.test_frame import make_pending


class TestChannelSet:
    def test_dual(self):
        channels = ChannelSet(2)
        assert channels.channels == [Channel.A, Channel.B]
        assert len(channels) == 2
        assert Channel.B in channels

    def test_single(self):
        channels = ChannelSet(1)
        assert channels.channels == [Channel.A]
        assert Channel.B not in channels

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            ChannelSet(0)

    def test_slot_counters_independent(self):
        channels = ChannelSet(2)
        channels.slot_counter(Channel.A).advance()
        assert channels.slot_counter(Channel.A).value == 2
        assert channels.slot_counter(Channel.B).value == 1

    def test_reset_counters(self):
        channels = ChannelSet(2)
        channels.slot_counter(Channel.A).advance()
        channels.reset_counters()
        assert channels.slot_counter(Channel.A).value == 1

    def test_missing_channel_counter(self):
        channels = ChannelSet(1)
        with pytest.raises(KeyError):
            channels.slot_counter(Channel.B)

    def test_pairs(self):
        pairs = ChannelSet(2).pairs()
        assert [channel for channel, __ in pairs] == [Channel.A, Channel.B]


class TestStaticBuffer:
    def test_rejects_bad_slot(self):
        with pytest.raises(ValueError):
            StaticBuffer(0)

    def test_write_take(self):
        buffer = StaticBuffer(3)
        pending = make_pending()
        assert buffer.write(pending) is None
        assert buffer.occupied
        assert buffer.peek() is pending
        assert buffer.take() is pending
        assert not buffer.occupied
        assert buffer.take() is None

    def test_overwrite_returns_displaced(self):
        buffer = StaticBuffer(3)
        old = make_pending()
        new = make_pending()
        buffer.write(old)
        displaced = buffer.write(new)
        assert displaced is old
        assert buffer.peek() is new


class TestPriorityOutputQueue:
    def test_rejects_bad_frame_id(self):
        with pytest.raises(ValueError):
            PriorityOutputQueue(0)

    def test_priority_order(self):
        queue = PriorityOutputQueue(81)
        low = make_pending(priority=9)
        high = make_pending(priority=1)
        queue.push(low)
        queue.push(high)
        assert queue.pop() is high
        assert queue.pop() is low
        assert queue.pop() is None

    def test_fifo_within_priority(self):
        queue = PriorityOutputQueue(81)
        first = make_pending(priority=5)
        second = make_pending(priority=5)
        queue.push(second)
        queue.push(first)
        # Equal priority and generation time: sequence (creation order)
        # breaks the tie -- first-created wins.
        assert queue.pop() is first

    def test_peek_does_not_consume(self):
        queue = PriorityOutputQueue(81)
        pending = make_pending()
        queue.push(pending)
        assert queue.peek() is pending
        assert len(queue) == 1

    def test_drop_expired(self):
        queue = PriorityOutputQueue(81)
        fresh = make_pending(deadline_mt=2000)
        stale = make_pending(deadline_mt=500)
        queue.push(fresh)
        queue.push(stale)
        expired = queue.drop_expired(now_mt=1000)
        assert expired == [stale]
        assert len(queue) == 1
        assert queue.peek() is fresh

    def test_drop_expired_none(self):
        queue = PriorityOutputQueue(81)
        queue.push(make_pending(deadline_mt=2000))
        assert queue.drop_expired(now_mt=100) == []

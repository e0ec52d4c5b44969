"""Unit tests for slot and minislot counters."""

import pytest

from repro.protocol.slots import MinislotCounter, SlotCounter


class TestSlotCounter:
    def test_starts_at_one(self):
        assert SlotCounter().value == 1

    def test_advance(self):
        counter = SlotCounter()
        assert counter.advance() == 2
        assert counter.advance() == 3

    def test_reset(self):
        counter = SlotCounter()
        counter.advance()
        counter.reset()
        assert counter.value == 1

    def test_jump_to(self):
        counter = SlotCounter()
        counter.jump_to(81)
        assert counter.value == 81

    def test_jump_rejects_invalid(self):
        with pytest.raises(ValueError):
            SlotCounter().jump_to(0)


class TestMinislotCounter:
    def test_initial_state(self):
        counter = MinislotCounter(40)
        assert counter.elapsed == 0
        assert counter.remaining == 40
        assert not counter.exhausted

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError):
            MinislotCounter(-1)

    def test_consume(self):
        counter = MinislotCounter(40)
        assert counter.consume(10) == 10
        assert counter.elapsed == 10
        assert counter.remaining == 30

    def test_consume_clamps(self):
        counter = MinislotCounter(10)
        assert counter.consume(15) == 10
        assert counter.exhausted

    def test_consume_rejects_negative(self):
        with pytest.raises(ValueError):
            MinislotCounter(10).consume(-1)

    def test_reset(self):
        counter = MinislotCounter(10)
        counter.consume(5)
        counter.reset()
        assert counter.elapsed == 0

    def test_latest_tx_gate(self):
        counter = MinislotCounter(40)
        assert counter.can_start_transmission(latest_tx=20)
        counter.consume(19)
        assert counter.can_start_transmission(latest_tx=20)
        counter.consume(1)
        assert not counter.can_start_transmission(latest_tx=20)

    def test_exhausted_blocks_start(self):
        counter = MinislotCounter(5)
        counter.consume(5)
        assert not counter.can_start_transmission(latest_tx=100)

    def test_zero_minislots_always_exhausted(self):
        counter = MinislotCounter(0)
        assert counter.exhausted
        assert not counter.can_start_transmission(latest_tx=1)

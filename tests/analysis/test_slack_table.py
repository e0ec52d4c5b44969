"""Unit tests for the structural idle-slot table."""

import pytest

from repro.analysis.slack_table import IdleSlotTable
from repro.protocol.channel import Channel
from repro.protocol.schedule import ScheduleTable, SlotAssignment

from tests.flexray.test_frame import make_frame


@pytest.fixture
def table_with_pattern(small_params):
    """Schedule: slot 1 every cycle, slot 2 on even cycles, channel A."""
    table = ScheduleTable(small_params)
    table.assign(Channel.A, SlotAssignment(
        slot_id=1, frame=make_frame(message_id="every")))
    table.assign(Channel.A, SlotAssignment(
        slot_id=2, frame=make_frame(message_id="even", base_cycle=0,
                                    cycle_repetition=2)))
    return table


class TestIdleSlotTable:
    def test_pattern_length_is_lcm(self, table_with_pattern):
        idle = IdleSlotTable(table_with_pattern, [Channel.A, Channel.B])
        assert idle.pattern_length == 2

    def test_idle_slots_per_cycle(self, table_with_pattern, small_params):
        idle = IdleSlotTable(table_with_pattern, [Channel.A, Channel.B])
        # Cycle 0: slots 1 and 2 busy on A -> 8 idle on A, 10 on B.
        assert len(idle.idle_slots(Channel.A, 0)) == 8
        assert len(idle.idle_slots(Channel.A, 1)) == 9
        assert len(idle.idle_slots(Channel.B, 0)) == 10

    def test_pattern_repeats(self, table_with_pattern):
        idle = IdleSlotTable(table_with_pattern, [Channel.A])
        assert idle.idle_slots(Channel.A, 0) == idle.idle_slots(Channel.A, 4)
        assert idle.idle_slots(Channel.A, 1) == idle.idle_slots(Channel.A, 7)

    def test_idle_count(self, table_with_pattern):
        idle = IdleSlotTable(table_with_pattern, [Channel.A])
        assert idle.idle_count(Channel.A, 0) == 8

    def test_unconfigured_channel_empty(self, table_with_pattern):
        idle = IdleSlotTable(table_with_pattern, [Channel.A])
        assert idle.idle_slots(Channel.B, 0) == ()

    def test_idle_slots_between_single_pattern(self, table_with_pattern):
        idle = IdleSlotTable(table_with_pattern, [Channel.A, Channel.B])
        # Cycle 0: 8 + 10 = 18; cycle 1: 9 + 10 = 19.
        assert idle.idle_slots_between(0, 1) == 18
        assert idle.idle_slots_between(0, 2) == 37
        assert idle.idle_slots_between(1, 2) == 19

    def test_idle_slots_between_many_patterns(self, table_with_pattern):
        idle = IdleSlotTable(table_with_pattern, [Channel.A, Channel.B])
        assert idle.idle_slots_between(0, 20) == 10 * 37

    def test_idle_slots_between_offset_window(self, table_with_pattern):
        idle = IdleSlotTable(table_with_pattern, [Channel.A, Channel.B])
        # Cycles 1..4: 19 + 18 + 19 = wait, [1,4) = cycles 1,2,3 ->
        # 19 + 18 + 19 = 56.
        assert idle.idle_slots_between(1, 4) == 56

    def test_empty_range(self, table_with_pattern):
        idle = IdleSlotTable(table_with_pattern, [Channel.A])
        assert idle.idle_slots_between(3, 3) == 0
        with pytest.raises(ValueError):
            idle.idle_slots_between(4, 3)

    def test_structural_utilization(self, table_with_pattern, small_params):
        idle = IdleSlotTable(table_with_pattern, [Channel.A])
        # Over the 2-cycle pattern on A: 3 busy of 20 slot-cycles.
        assert idle.structural_utilization() == pytest.approx(3 / 20)

    def test_empty_schedule_all_idle(self, small_params):
        table = ScheduleTable(small_params)
        idle = IdleSlotTable(table, [Channel.A, Channel.B])
        assert idle.structural_utilization() == 0.0
        assert idle.idle_slots_between(0, 1) == 20

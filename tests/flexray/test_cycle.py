"""Unit tests for the communication-cycle layout."""

import pytest

from repro.protocol.cycle import CycleLayout


@pytest.fixture
def layout(small_params):
    return CycleLayout(small_params)


class TestCycleBoundaries:
    def test_cycle_start(self, layout):
        assert layout.cycle_start(0) == 0
        assert layout.cycle_start(3) == 2400

    def test_cycle_start_rejects_negative(self, layout):
        with pytest.raises(ValueError):
            layout.cycle_start(-1)

    def test_cycle_of_time(self, layout):
        assert layout.cycle_of_time(0) == 0
        assert layout.cycle_of_time(799) == 0
        assert layout.cycle_of_time(800) == 1

    def test_cycle_of_time_rejects_negative(self, layout):
        with pytest.raises(ValueError):
            layout.cycle_of_time(-1)

    def test_cycles_for_horizon(self, layout):
        assert layout.cycles_for_horizon(800) == 1
        assert layout.cycles_for_horizon(2399) == 2


class TestStaticSlots:
    def test_first_slot_window(self, layout):
        assert layout.static_slot_window(0, 1) == (0, 40)

    def test_window_progression(self, layout):
        start5, end5 = layout.static_slot_window(0, 5)
        assert start5 == 160
        assert end5 == 200

    def test_window_in_later_cycle(self, layout):
        start, __ = layout.static_slot_window(2, 1)
        assert start == 1600

    def test_rejects_out_of_range_slot(self, layout):
        with pytest.raises(ValueError):
            layout.static_slot_window(0, 0)
        with pytest.raises(ValueError):
            layout.static_slot_window(0, 11)

    def test_action_point(self, layout, small_params):
        assert layout.static_action_point(0, 1) == \
            small_params.gd_action_point_offset_mt

    def test_slots_tile_static_segment(self, layout, small_params):
        previous_end = 0
        for slot in range(1, small_params.g_number_of_static_slots + 1):
            start, end = layout.static_slot_window(0, slot)
            assert start == previous_end
            previous_end = end
        assert previous_end == small_params.static_segment_mt


class TestDynamicSegment:
    def test_window(self, layout, small_params):
        start, end = layout.dynamic_segment_window(0)
        assert start == small_params.static_segment_mt
        assert end == start + small_params.dynamic_segment_mt

    def test_minislot_start(self, layout, small_params):
        base, __ = layout.dynamic_segment_window(0)
        assert layout.minislot_start(0, 0) == base
        assert layout.minislot_start(0, 3) == base + 24

    def test_minislot_rejects_out_of_range(self, layout):
        with pytest.raises(ValueError):
            layout.minislot_start(0, 41)

    def test_symbol_and_nit(self, layout, small_params):
        sym_start, sym_end = layout.symbol_window(0)
        assert sym_start == sym_end  # zero-length symbol window
        nit_start, nit_end = layout.nit_window(0)
        assert nit_start == sym_end
        assert nit_end == layout.cycle_start(1)

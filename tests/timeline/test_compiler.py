"""Tests for the round compiler (`repro.timeline.compiler`).

The compiled round must agree with the legacy slot-by-slot derivations
(`ScheduleTable.lookup`, idle-slot complements) on every query, because
the engine fast path, the slack planners and the admission service all
read from it instead of the table.
"""

import math

import pytest

from repro.protocol.channel import Channel
from repro.protocol.schedule import build_dual_schedule
from repro.obs import Observability
from repro.packing.frame_packing import pack_signals
from repro.timeline.compiler import (
    CYCLES_PER_MATRIX,
    SEGMENT_DYNAMIC,
    SEGMENT_NIT,
    SEGMENT_STATIC,
    CompiledRound,
    compile_round,
)


@pytest.fixture
def table(tiny_workload, small_params):
    packing = pack_signals(tiny_workload, small_params)
    return build_dual_schedule(packing.static_frames(), small_params)


@pytest.fixture
def compiled(table, small_params):
    return compile_round(table, small_params, [Channel.A, Channel.B])


class TestCompileRound:
    def test_pattern_and_matrix_length(self, table, compiled):
        repetitions = {
            a.frame.cycle_repetition
            for channel in (Channel.A, Channel.B)
            for a in table.assignments(channel)
        }
        expected = 1
        for repetition in repetitions:
            expected = math.lcm(expected, repetition)
        assert compiled.pattern_length == expected
        assert compiled.cycle_count == math.lcm(expected, CYCLES_PER_MATRIX)
        assert compiled.cycle_count % compiled.pattern_length == 0

    def test_owner_agrees_with_table_lookup(self, table, compiled,
                                            small_params):
        """The O(1) owner map is `ScheduleTable.lookup`, precomputed."""
        for channel in (Channel.A, Channel.B):
            for cycle in range(compiled.cycle_count):
                for slot in range(
                        1, small_params.g_number_of_static_slots + 1):
                    assert (compiled.owner(channel, cycle, slot)
                            is table.lookup(channel, cycle, slot))

    def test_owner_reduces_cycle_modulo_matrix(self, compiled):
        for channel in (Channel.A, Channel.B):
            for slot in compiled.owned_slots(channel, 0):
                assert (compiled.owner(channel, compiled.cycle_count, slot)
                        is compiled.owner(channel, 0, slot))

    def test_idle_slots_are_the_ownership_complement(self, compiled,
                                                     small_params):
        slots = set(range(1, small_params.g_number_of_static_slots + 1))
        for channel in (Channel.A, Channel.B):
            for cycle in range(compiled.pattern_length):
                owned = set(compiled.owned_slots(channel, cycle))
                assert set(compiled.idle_slots(channel, cycle)) == slots - owned

    def test_idle_windows_match_slot_geometry(self, compiled, small_params):
        slot_mt = small_params.gd_static_slot_mt
        for cycle in range(compiled.pattern_length):
            windows = compiled.idle_slot_windows(Channel.A, cycle)
            ids = compiled.idle_slots(Channel.A, cycle)
            assert windows == tuple(
                ((s - 1) * slot_mt, s * slot_mt) for s in ids)

    def test_idle_slots_between_matches_direct_sum(self, compiled):
        def direct(start, end):
            return sum(
                compiled.idle_count(channel, cycle)
                for channel in compiled.channels
                for cycle in range(start, end)
            )

        pattern = compiled.pattern_length
        for start, end in [(0, 1), (0, pattern), (1, pattern + 3),
                           (pattern - 1, 3 * pattern + 2), (5, 5)]:
            assert compiled.idle_slots_between(start, end) == direct(start, end)

    def test_idle_slots_between_rejects_reversed_range(self, compiled):
        with pytest.raises(ValueError, match="empty cycle range"):
            compiled.idle_slots_between(3, 2)

    def test_static_entries_cover_every_sending_assignment(self, table,
                                                           compiled):
        expected = sum(
            1
            for cycle in range(compiled.cycle_count)
            for channel in (Channel.A, Channel.B)
            for a in table.assignments(channel)
            if a.frame.sends_in_cycle(cycle)
        )
        static = [e for e in compiled.entries()
                  if e.segment_kind == SEGMENT_STATIC]
        assert len(static) == expected

    def test_window_geometry(self, compiled, small_params):
        cycle_mt = small_params.gd_cycle_mt
        slot_mt = small_params.gd_static_slot_mt
        offset = small_params.gd_action_point_offset_mt
        for entry in compiled.entries():
            if entry.segment_kind != SEGMENT_STATIC:
                continue
            assert entry.end_mt - entry.start_mt == slot_mt
            assert entry.start_mt % cycle_mt == (entry.slot_id - 1) * slot_mt
            assert entry.action_mt == entry.start_mt + offset

    def test_per_cycle_segments_emitted_in_order(self, compiled,
                                                 small_params):
        kinds = [e.segment_kind for e in compiled.entries()
                 if e.start_mt < small_params.gd_cycle_mt
                 and e.segment_kind != SEGMENT_STATIC]
        assert kinds == [SEGMENT_DYNAMIC, SEGMENT_NIT]

    def test_zero_minislots_emits_no_dynamic_entry(self,
                                                   tiny_periodic_signals,
                                                   small_params):
        params = small_params.with_minislots(0)
        packing = pack_signals(tiny_periodic_signals, params)
        round_ = compile_round(
            build_dual_schedule(packing.static_frames(), params),
            params, [Channel.A])
        assert all(e.segment_kind != SEGMENT_DYNAMIC
                   for e in round_.entries())

    def test_static_steps_sorted_with_channel_a_first(self, compiled):
        for cycle in range(compiled.cycle_count):
            steps = compiled.static_steps(cycle)
            assert [s.slot_id for s in steps] == sorted(
                s.slot_id for s in steps)
            for step in steps:
                names = [channel.value for channel, __ in step.entries]
                assert names == sorted(names)

    def test_structural_utilization_matches_manual_count(self, compiled,
                                                         small_params):
        capacity = (small_params.g_number_of_static_slots
                    * compiled.pattern_length * len(compiled.channels))
        used = sum(
            len(compiled.owned_slots(channel, cycle))
            for channel in compiled.channels
            for cycle in range(compiled.pattern_length)
        )
        assert compiled.structural_utilization() == pytest.approx(
            used / capacity)


class TestCompiledRoundValidation:
    def _arrays(self, n):
        return dict(starts=[0] * n, ends=[1] * n, actions=[0] * n,
                    slot_ids=[1] * n, channel_codes=[0] * n,
                    owner_nodes=[0] * n, frame_ids=[0] * n,
                    segment_kinds=[SEGMENT_STATIC] * n)

    def test_rejects_nonpositive_cycle_count(self, small_params):
        with pytest.raises(ValueError, match="cycle_count"):
            CompiledRound(small_params, [Channel.A], cycle_count=0,
                          pattern_length=1, **self._arrays(1))

    def test_rejects_nondividing_pattern(self, small_params):
        with pytest.raises(ValueError, match="pattern_length"):
            CompiledRound(small_params, [Channel.A], cycle_count=64,
                          pattern_length=3, **self._arrays(1))

    def test_rejects_ragged_arrays(self, small_params):
        arrays = self._arrays(2)
        arrays["ends"] = [1]
        with pytest.raises(ValueError, match="disagree in length"):
            CompiledRound(small_params, [Channel.A], cycle_count=64,
                          pattern_length=1, **arrays)

    def test_rejects_ragged_frames(self, small_params):
        with pytest.raises(ValueError, match="frames length"):
            CompiledRound(small_params, [Channel.A], cycle_count=64,
                          pattern_length=1, frames=[None, None],
                          **self._arrays(1))


class TestCompileObservability:
    def test_compile_is_profiled_and_counted(self, table, small_params):
        obs = Observability()
        compiled = compile_round(table, small_params,
                                 [Channel.A, Channel.B], obs=obs)
        snapshot = obs.snapshot()
        assert "timeline.compile" in snapshot["profile"]
        assert snapshot["counters"]["timeline.rounds_compiled"] == 1
        assert snapshot["gauges"]["timeline.entries"]["value"] == len(compiled)

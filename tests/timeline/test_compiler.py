"""Tests for the round compiler (`repro.timeline.compiler`).

The compiled round must agree with the legacy slot-by-slot derivations
(`ScheduleTable.lookup`, idle-slot complements) on every query, because
the engine fast path, the slack planners and the admission service all
read from it instead of the table.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocol.channel import Channel
from repro.protocol.frame import CYCLE_REPETITIONS, Frame
from repro.protocol.schedule import (
    ScheduleTable,
    SlotAssignment,
    build_dual_schedule,
)
from repro.obs import Observability
from repro.packing.frame_packing import pack_signals
from repro.timeline.compiler import (
    SEGMENT_DYNAMIC,
    SEGMENT_NIT,
    SEGMENT_STATIC,
    CompiledRound,
    compile_round,
)
from repro.verify import check_compiled_round


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
        # One period: the rows span exactly the pattern's cycles.
        cycle_mt = compiled.params.gd_cycle_mt
        assert {start // cycle_mt for start in compiled.starts} \
            == set(range(expected))

    def test_owner_agrees_with_table_lookup(self, table, compiled,
                                            small_params):
        """The O(1) owner map is `ScheduleTable.lookup`, precomputed."""
        for channel in (Channel.A, Channel.B):
            for cycle in range(max(CYCLE_REPETITIONS)):
                for slot in range(
                        1, small_params.g_number_of_static_slots + 1):
                    assert (compiled.owner(channel, cycle, slot)
                            is table.lookup(channel, cycle, slot))

    def test_owner_reduces_cycle_modulo_matrix(self, compiled):
        for channel in (Channel.A, Channel.B):
            for slot in compiled.owned_slots(channel, 0):
                assert (compiled.owner(channel, compiled.pattern_length,
                                       slot)
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
            for cycle in range(compiled.pattern_length)
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
        for cycle in range(compiled.pattern_length):
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

    def test_rejects_nonpositive_pattern_length(self, small_params):
        with pytest.raises(ValueError, match="pattern_length"):
            CompiledRound(small_params, [Channel.A], pattern_length=0,
                          **self._arrays(1))

    def test_rejects_ragged_arrays(self, small_params):
        arrays = self._arrays(2)
        arrays["ends"] = [1]
        with pytest.raises(ValueError, match="disagree in length"):
            CompiledRound(small_params, [Channel.A], pattern_length=1,
                          **arrays)

    def test_rejects_ragged_frames(self, small_params):
        with pytest.raises(ValueError, match="frames length"):
            CompiledRound(small_params, [Channel.A], pattern_length=1,
                          frames=[None, None], **self._arrays(1))


# ----------------------------------------------------------------------
# One period: random schedules agree with ScheduleTable.lookup
# ----------------------------------------------------------------------

#: Up to four frames per channel on distinct slots: (slot, repetition,
#: base seed), the base reduced modulo the repetition.
_channel_frames = st.lists(
    st.tuples(st.integers(1, 10), st.sampled_from(CYCLE_REPETITIONS),
              st.integers(0, 63)),
    max_size=4, unique_by=lambda frame: frame[0])


def _random_table(params, frames_a, frames_b):
    table = ScheduleTable(params)
    for channel, frames in ((Channel.A, frames_a), (Channel.B, frames_b)):
        for slot_id, repetition, base in frames:
            table.assign(channel, SlotAssignment(slot_id=slot_id, frame=Frame(
                frame_id=slot_id, message_id=f"{channel.name}{slot_id}",
                payload_bits=64, producer_ecu=slot_id,
                base_cycle=base % repetition,
                cycle_repetition=repetition)))
    return table


class TestOnePeriod:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(frames_a=_channel_frames, frames_b=_channel_frames,
           channels=st.sampled_from([[Channel.A], [Channel.B],
                                     [Channel.A, Channel.B]]))
    def test_queries_agree_with_lookup_over_two_matrices(
            self, small_params, frames_a, frames_b, channels):
        table = _random_table(small_params, frames_a, frames_b)
        compiled = compile_round(table, small_params, channels)
        pattern = math.lcm(1, *(rep for __, rep, ___ in frames_a + frames_b))
        assert compiled.pattern_length == pattern
        cycle_mt = small_params.gd_cycle_mt
        assert {start // cycle_mt for start in compiled.starts} \
            == set(range(pattern))
        slots = range(1, small_params.g_number_of_static_slots + 1)
        for cycle in range(2 * max(CYCLE_REPETITIONS)):
            steps = {}
            for channel in (Channel.A, Channel.B):
                for slot in slots:
                    expected = table.lookup(channel, cycle, slot)
                    assert compiled.owner(channel, cycle, slot) is expected
                    assert compiled.owner_node(channel, cycle, slot) == (
                        -1 if expected is None else expected.producer_ecu)
                    if expected is not None:
                        steps.setdefault(slot, []).append(
                            (channel, expected))
                if channel in channels:
                    assert compiled.idle_slots(channel, cycle) == tuple(
                        slot for slot in slots
                        if table.lookup(channel, cycle, slot) is None)
                else:
                    assert compiled.idle_slots(channel, cycle) == ()
            assert [(step.slot_id, list(step.entries))
                    for step in compiled.static_steps(cycle)] \
                == sorted(steps.items())

    def test_half_pattern_is_caught_by_frs110(self, small_params):
        """A round that claims half its true period agrees with the
        table over its own cycles; only the sweep over every
        cycle-counter value sees the frame it lost."""
        table = _random_table(small_params, [(1, 64, 40)], [])
        full = compile_round(table, small_params, [Channel.A])
        assert full.pattern_length == 64
        assert len(check_compiled_round(full, table=table)) == 0
        half = full.pattern_length // 2
        keep = [i for i, start in enumerate(full.starts)
                if start < half * small_params.gd_cycle_mt]
        names = ("starts", "ends", "actions", "slot_ids", "channel_codes",
                 "owner_nodes", "frame_ids", "segment_kinds", "frames")
        short = CompiledRound(
            small_params, full.channels, pattern_length=half,
            **{name: [getattr(full, name)[i] for i in keep]
               for name in names})
        report = check_compiled_round(short, table=table)
        assert report.rule_ids() == ["FRS110"]
        assert [d.location for d in report.diagnostics] \
            == ["round.A.cycle 40.slot 1"]


class TestCompileObservability:
    def test_compile_is_profiled_and_counted(self, table, small_params):
        obs = Observability()
        compiled = compile_round(table, small_params,
                                 [Channel.A, Channel.B], obs=obs)
        snapshot = obs.snapshot()
        assert "timeline.compile" in snapshot["profile"]
        assert snapshot["counters"]["timeline.rounds_compiled"] == 1
        assert snapshot["gauges"]["timeline.entries"]["value"] == len(compiled)

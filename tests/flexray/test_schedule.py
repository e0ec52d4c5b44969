"""Unit tests for schedule-table construction."""

import pytest

from repro.protocol.channel import Channel
from repro.protocol.schedule import (
    ChannelStrategy,
    ScheduleInfeasibleError,
    ScheduleTable,
    SlotAssignment,
    build_dual_schedule,
    build_schedule,
    patterns_conflict,
    repetition_for_period,
)

from tests.flexray.test_frame import make_frame


class TestRepetitionForPeriod:
    @pytest.mark.parametrize("period,cycle,expected", [
        (5.0, 5.0, 1),
        (10.0, 5.0, 2),
        (40.0, 5.0, 8),
        (50.0, 5.0, 8),   # largest power of two with rep*5 <= 50
        (3.0, 5.0, 1),    # shorter than the cycle
        (1000.0, 5.0, 64),  # capped at 64
    ])
    def test_values(self, period, cycle, expected):
        assert repetition_for_period(period, cycle) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            repetition_for_period(0.0, 5.0)


class TestPatternsConflict:
    def test_same_base_same_rep(self):
        assert patterns_conflict(0, 2, 0, 2)

    def test_disjoint_bases(self):
        assert not patterns_conflict(0, 2, 1, 2)

    def test_rep_one_conflicts_with_everything(self):
        assert patterns_conflict(0, 1, 1, 4)

    def test_nested_repetitions(self):
        # base 1 rep 2 fires at 1,3,5,7...; base 3 rep 4 fires at 3,7...
        assert patterns_conflict(1, 2, 3, 4)
        # base 0 rep 2 fires at 0,2,4...; base 3 rep 4 at 3,7... disjoint.
        assert not patterns_conflict(0, 2, 3, 4)


class TestScheduleTable:
    def test_assign_and_lookup(self, small_params):
        table = ScheduleTable(small_params)
        frame = make_frame()
        table.assign(Channel.A, SlotAssignment(slot_id=3, frame=frame))
        assert table.lookup(Channel.A, 0, 3) is frame
        assert table.lookup(Channel.A, 0, 4) is None
        assert table.lookup(Channel.B, 0, 3) is None

    def test_rejects_out_of_segment(self, small_params):
        table = ScheduleTable(small_params)
        with pytest.raises(ValueError):
            table.assign(Channel.A, SlotAssignment(slot_id=11,
                                                   frame=make_frame()))

    def test_multiplexed_sharing(self, small_params):
        table = ScheduleTable(small_params)
        even = make_frame(message_id="even", base_cycle=0, cycle_repetition=2)
        odd = make_frame(message_id="odd", base_cycle=1, cycle_repetition=2)
        table.assign(Channel.A, SlotAssignment(slot_id=1, frame=even))
        table.assign(Channel.A, SlotAssignment(slot_id=1, frame=odd))
        assert table.lookup(Channel.A, 0, 1).message_id == "even"
        assert table.lookup(Channel.A, 1, 1).message_id == "odd"

    def test_conflicting_share_rejected(self, small_params):
        table = ScheduleTable(small_params)
        table.assign(Channel.A, SlotAssignment(slot_id=1, frame=make_frame()))
        with pytest.raises(ValueError):
            table.assign(Channel.A, SlotAssignment(
                slot_id=1, frame=make_frame(message_id="other")
            ))

    def test_idle_slot_count(self, small_params):
        table = ScheduleTable(small_params)
        table.assign(Channel.A, SlotAssignment(
            slot_id=1,
            frame=make_frame(base_cycle=0, cycle_repetition=2),
        ))
        assert table.idle_slot_count(Channel.A, 0) == 9
        assert table.idle_slot_count(Channel.A, 1) == 10

    def test_utilization_over(self, small_params):
        table = ScheduleTable(small_params)
        table.assign(Channel.A, SlotAssignment(
            slot_id=1,
            frame=make_frame(base_cycle=0, cycle_repetition=2),
        ))
        assert table.utilization_over(Channel.A, 2) == pytest.approx(0.05)

    def test_owned_slots_and_frames(self, small_params):
        table = ScheduleTable(small_params)
        table.assign(Channel.A, SlotAssignment(slot_id=4, frame=make_frame()))
        assert table.owned_slots(Channel.A) == [4]
        assert len(table.frames(Channel.A)) == 1


class TestBuildSchedule:
    def test_assigns_distinct_slots(self, small_params):
        frames = [make_frame(message_id=f"m{i}") for i in range(4)]
        table = build_schedule(frames, small_params, [Channel.A])
        slots = table.owned_slots(Channel.A)
        assert len(slots) == 4

    def test_frame_ids_bound_to_slots(self, small_params):
        frames = [make_frame(message_id=f"m{i}") for i in range(3)]
        table = build_schedule(frames, small_params, [Channel.A])
        for assignment in table.assignments(Channel.A):
            assert assignment.frame.frame_id == assignment.slot_id

    def test_multiplexing_packs_into_one_slot(self, small_params):
        frames = [
            make_frame(message_id=f"m{i}", base_cycle=i, cycle_repetition=4)
            for i in range(4)
        ]
        table = build_schedule(frames, small_params, [Channel.A])
        assert table.owned_slots(Channel.A) == [1]

    def test_replication_across_channels(self, small_params):
        frames = [make_frame()]
        table = build_schedule(frames, small_params,
                               [Channel.A, Channel.B])
        assert table.lookup(Channel.A, 0, 1) is not None
        assert table.lookup(Channel.B, 0, 1) is not None

    def test_preferred_phase_shifts_slot(self, small_params):
        # Phase 200 MT -> first usable slot is 6 (slots are 40 MT).
        frame = make_frame(preferred_phase_mt=200)
        table = build_schedule([frame], small_params, [Channel.A])
        assert table.owned_slots(Channel.A) == [6]

    def test_infeasible_raises(self, small_params):
        frames = [make_frame(message_id=f"m{i}") for i in range(11)]
        with pytest.raises(ScheduleInfeasibleError):
            build_schedule(frames, small_params, [Channel.A])


class TestBuildDualSchedule:
    def _frames(self, count):
        return [make_frame(message_id=f"m{i}") for i in range(count)]

    def test_unknown_strategy(self, small_params):
        with pytest.raises(ValueError):
            build_dual_schedule(self._frames(1), small_params, "bogus")

    def test_replicate_mirrors(self, small_params):
        table = build_dual_schedule(self._frames(3), small_params,
                                    ChannelStrategy.REPLICATE)
        assert table.owned_slots(Channel.A) == table.owned_slots(Channel.B)

    def test_replicate_infeasible(self, small_params):
        with pytest.raises(ScheduleInfeasibleError):
            build_dual_schedule(self._frames(11), small_params,
                                ChannelStrategy.REPLICATE)

    def test_distribute_spills_to_b(self, small_params):
        table = build_dual_schedule(self._frames(15), small_params,
                                    ChannelStrategy.DISTRIBUTE)
        assert len(table.owned_slots(Channel.A)) == 10
        assert len(table.owned_slots(Channel.B)) == 5

    def test_distribute_single_copy(self, small_params):
        table = build_dual_schedule(self._frames(15), small_params,
                                    ChannelStrategy.DISTRIBUTE)
        messages_a = {f.message_id for f in table.frames(Channel.A)}
        messages_b = {f.message_id for f in table.frames(Channel.B)}
        assert not messages_a & messages_b

    def test_distribute_infeasible(self, small_params):
        with pytest.raises(ScheduleInfeasibleError):
            build_dual_schedule(self._frames(21), small_params,
                                ChannelStrategy.DISTRIBUTE)

    def test_duplicate_best_effort_adds_copies(self, small_params):
        table = build_dual_schedule(self._frames(6), small_params,
                                    ChannelStrategy.DUPLICATE_BEST_EFFORT)
        # 6 primaries on A, 6 duplicates on B.
        assert len(table.frames(Channel.A)) == 6
        assert len(table.frames(Channel.B)) == 6
        assert {f.message_id for f in table.frames(Channel.A)} == \
               {f.message_id for f in table.frames(Channel.B)}

    def test_duplicate_best_effort_partial(self, small_params):
        # 15 frames fill A (10) + B (5); only 5 free B slots remain for
        # duplicates of A's frames.
        table = build_dual_schedule(self._frames(15), small_params,
                                    ChannelStrategy.DUPLICATE_BEST_EFFORT)
        total = len(table.frames(Channel.A)) + len(table.frames(Channel.B))
        assert total == 20  # every slot-channel used, nothing crashes

    def test_base_flexibility_enables_sharing(self, small_params):
        # Eleven frames all wanting base 0 of repetition 4 cannot fit 10
        # slots without shifting; flexibility lets them share.
        frames = [
            make_frame(message_id=f"m{i}", base_cycle=0, cycle_repetition=4,
                       base_flexibility=3)
            for i in range(11)
        ]
        table = build_dual_schedule(frames, small_params.with_channels(1),
                                    ChannelStrategy.DISTRIBUTE)
        assert len(table.assignments(Channel.A)) == 11
        # At least one slot is shared via a shifted base (11 frames on
        # 10 slots); without flexibility this raises (checked below).
        per_slot = [
            sum(1 for a in table.assignments(Channel.A)
                if a.slot_id == slot)
            for slot in table.owned_slots(Channel.A)
        ]
        assert max(per_slot) >= 2
        rigid = [
            make_frame(message_id=f"r{i}", base_cycle=0, cycle_repetition=4)
            for i in range(11)
        ]
        with pytest.raises(ScheduleInfeasibleError):
            build_dual_schedule(rigid, small_params.with_channels(1),
                                ChannelStrategy.DISTRIBUTE)

    def test_single_channel_params(self, small_params):
        table = build_dual_schedule(self._frames(3),
                                    small_params.with_channels(1),
                                    ChannelStrategy.DISTRIBUTE)
        assert table.frames(Channel.B) == []

"""Tests for the compiled-round task mapping (`round_task_sets`)."""

import math

import pytest

from repro.protocol.channel import Channel
from repro.flexray.params import FRAME_OVERHEAD_BITS
from repro.protocol.schedule import build_dual_schedule
from repro.packing.frame_packing import pack_signals
from repro.service.config import (
    BIT_RATE_BPS,
    load_service_setup,
    round_task_sets,
)
from repro.timeline.compiler import compile_round


@pytest.fixture
def compiled(tiny_periodic_signals, small_params):
    packing = pack_signals(tiny_periodic_signals, small_params)
    table = build_dual_schedule(packing.static_frames(), small_params)
    return compile_round(table, small_params, [Channel.A, Channel.B])


class TestRoundTaskSets:
    def test_one_task_per_owned_assignment(self, compiled):
        sets = round_task_sets(compiled)
        assert set(sets) == {"A", "B"}
        expected = {
            channel: len({
                (slot_id, compiled.owner(channel, cycle, slot_id).frame_id)
                for cycle in range(compiled.pattern_length)
                for slot_id in compiled.owned_slots(channel, cycle)
            })
            for channel in (Channel.A, Channel.B)
        }
        assert len(sets["A"]) == expected[Channel.A]
        assert len(sets["B"]) == expected[Channel.B]

    def test_task_names_encode_placement(self, compiled):
        for channel, task_set in round_task_sets(compiled).items():
            for task in task_set:
                message, __, placement = task.name.partition("@")
                assert message
                assert placement.startswith(f"{channel}:")

    def test_period_follows_cycle_repetition(self, compiled, small_params):
        tick_us = 100
        ticks_per_ms = 1000.0 / tick_us
        sets = round_task_sets(compiled, tick_us=tick_us)
        by_name = {t.name: t for ts in sets.values() for t in ts}
        for channel in (Channel.A, Channel.B):
            for slot_id in compiled.owned_slots(channel, 0):
                frame = compiled.owner(channel, 0, slot_id)
                task = by_name[f"{frame.message_id}@{channel.value}:{slot_id}"]
                period_ms = (frame.cycle_repetition
                             * small_params.gd_cycle_mt
                             * small_params.gd_macrotick_us / 1000.0)
                assert task.period == max(1, round(period_ms * ticks_per_ms))

    def test_execution_is_wire_time_rounded_up(self, compiled):
        tick_us = 100
        sets = round_task_sets(compiled, tick_us=tick_us)
        for channel in (Channel.A, Channel.B):
            for slot_id in compiled.owned_slots(channel, 0):
                frame = compiled.owner(channel, 0, slot_id)
                task = next(
                    t for t in sets[channel.value]
                    if t.name == f"{frame.message_id}@{channel.value}"
                                 f":{slot_id}")
                wire_ms = frame.total_bits * 1000.0 / BIT_RATE_BPS
                assert task.execution == max(
                    1, math.ceil(wire_ms * (1000.0 / tick_us)))
                assert frame.total_bits > FRAME_OVERHEAD_BITS

    def test_deadlines_are_implicit(self, compiled):
        for task_set in round_task_sets(compiled).values():
            for task in task_set:
                assert task.deadline == max(task.execution, task.period)


class TestLoadServiceSetupMapping:
    def test_round_mapping_happy_path(self):
        setup = load_service_setup(workload="synthetic", count=8,
                                   mapping="round")
        assert set(setup.channel_tasks) == {"A", "B"}
        assert any(len(ts) > 0 for ts in setup.channel_tasks.values())
        for task_set in setup.channel_tasks.values():
            for task in task_set:
                assert "@" in task.name  # placement-derived, not signal

    def test_signals_mapping_unchanged(self):
        setup = load_service_setup(workload="synthetic", count=8,
                                   mapping="signals")
        for task_set in setup.channel_tasks.values():
            for task in task_set:
                assert "@" not in task.name

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError, match="unknown task mapping"):
            load_service_setup(mapping="frames")

"""Unit tests for the static (TDMA) and dynamic (FTDMA) segment engines."""

from typing import Dict, List

import pytest

from repro.protocol.channel import Channel, ChannelSet
from repro.protocol.cycle import CycleLayout
from repro.protocol.dynamic_segment import DynamicSegmentEngine
from repro.protocol.frame import FrameKind, PendingFrame
from repro.protocol.policy import SchedulerPolicy
from repro.protocol.static_segment import StaticSegmentEngine
from repro.sim.trace import TraceRecorder, TransmissionOutcome

from tests.flexray.test_frame import make_frame, make_pending


class ScriptedPolicy(SchedulerPolicy):
    """Test double: serves from explicit per-slot scripts."""

    name = "scripted"

    def __init__(self):
        self.static_script: Dict[tuple, PendingFrame] = {}
        self.dynamic_script: Dict[tuple, List[PendingFrame]] = {}
        self.outcomes: List[tuple] = []
        self.holds: List[PendingFrame] = []

    def bind(self, cluster):
        pass

    def on_arrival(self, pending):
        pass

    def on_cycle_start(self, cycle, start_mt):
        pass

    def static_frame_for(self, channel, cycle, slot_id, action_point_mt):
        return self.static_script.pop((channel, cycle, slot_id), None)

    def dynamic_frame_for(self, channel, slot_id, start_mt,
                          minislots_remaining):
        queue = self.dynamic_script.get((channel, slot_id))
        return queue[0] if queue else None

    def on_outcome(self, pending, channel, segment, outcome, end_mt):
        self.outcomes.append((pending, channel, segment, outcome, end_mt))
        queue = self.dynamic_script.get((channel, pending.frame.frame_id))
        if queue and queue[0] is pending:
            queue.pop(0)

    def on_dynamic_hold(self, pending, channel):
        self.holds.append(pending)
        queue = self.dynamic_script.get((channel, pending.frame.frame_id))
        if queue and queue[0] is pending:
            queue.pop(0)


@pytest.fixture
def harness(small_params):
    layout = CycleLayout(small_params)
    channels = ChannelSet(small_params.channel_count)
    policy = ScriptedPolicy()
    trace = TraceRecorder()
    corrupted_calls = []

    def corrupts(channel, bits, time_mt):
        corrupted_calls.append((channel, bits, time_mt))
        return False

    static = StaticSegmentEngine(small_params, layout, channels, policy,
                                 corrupts, trace)
    dynamic = DynamicSegmentEngine(small_params, layout, channels, policy,
                                   corrupts, trace)
    return small_params, layout, channels, policy, trace, static, dynamic


def no_arrivals(time_mt):
    pass


class TestStaticSegmentEngine:
    def test_idle_cycle_records_nothing(self, harness):
        *_, policy, trace, static, __ = harness
        static.execute_cycle(0, no_arrivals)
        assert len(trace) == 0

    def test_transmission_recorded_at_action_point(self, harness):
        params, layout, channels, policy, trace, static, __ = harness
        pending = make_pending(generation_time_mt=0, deadline_mt=10_000)
        policy.static_script[(Channel.A, 0, 3)] = pending
        static.execute_cycle(0, no_arrivals)
        assert len(trace) == 1
        record = trace.records[0]
        assert record.slot_id == 3
        assert record.segment == "static"
        assert record.start == layout.static_action_point(0, 3)
        assert record.outcome is TransmissionOutcome.DELIVERED

    def test_outcome_fed_back(self, harness):
        *_, policy, trace, static, __ = harness
        pending = make_pending(generation_time_mt=0, deadline_mt=10_000)
        policy.static_script[(Channel.A, 0, 1)] = pending
        static.execute_cycle(0, no_arrivals)
        assert len(policy.outcomes) == 1
        assert policy.outcomes[0][0] is pending

    def test_both_channels_same_slot(self, harness):
        *_, policy, trace, static, __ = harness
        a = make_pending(generation_time_mt=0, deadline_mt=10_000)
        b = make_pending(generation_time_mt=0, deadline_mt=10_000)
        policy.static_script[(Channel.A, 0, 1)] = a
        policy.static_script[(Channel.B, 0, 1)] = b
        static.execute_cycle(0, no_arrivals)
        channels_seen = {r.channel for r in trace}
        assert channels_seen == {"A", "B"}

    def test_oversized_frame_is_policy_bug(self, harness):
        params, *_rest = harness
        __, __, __, policy, __, static, __ = harness
        big = make_pending(
            frame=make_frame(payload_bits=params.static_slot_capacity_bits
                             + 500),
            generation_time_mt=0, deadline_mt=100_000,
        )
        policy.static_script[(Channel.A, 0, 1)] = big
        with pytest.raises(ValueError, match="does not fit"):
            static.execute_cycle(0, no_arrivals)

    def test_premature_transmission_is_policy_bug(self, harness):
        *_, policy, __, static, __dyn = harness
        future = make_pending(generation_time_mt=10_000, deadline_mt=20_000)
        policy.static_script[(Channel.A, 0, 1)] = future
        with pytest.raises(ValueError, match="before its generation"):
            static.execute_cycle(0, no_arrivals)

    def test_arrivals_delivered_before_each_slot(self, harness):
        params, layout, *_rest = harness
        *_, policy, __, static, __dyn = harness
        seen_times = []
        static.execute_cycle(0, seen_times.append)
        assert seen_times == [
            layout.static_action_point(0, slot)
            for slot in range(1, params.g_number_of_static_slots + 1)
        ]

    def test_fault_oracle_corrupts(self, small_params):
        layout = CycleLayout(small_params)
        channels = ChannelSet(2)
        policy = ScriptedPolicy()
        trace = TraceRecorder()
        engine = StaticSegmentEngine(
            small_params, layout, channels, policy,
            lambda c, b, t: True, trace,
        )
        policy.static_script[(Channel.A, 0, 1)] = make_pending(
            generation_time_mt=0, deadline_mt=10_000)
        engine.execute_cycle(0, no_arrivals)
        assert trace.records[0].outcome is TransmissionOutcome.CORRUPTED


class TestDynamicSegmentEngine:
    def _dyn_pending(self, params, payload=64, slot_id=None):
        slot_id = slot_id or params.first_dynamic_slot_id
        return make_pending(
            frame=make_frame(frame_id=slot_id, payload_bits=payload,
                             kind=FrameKind.DYNAMIC),
            generation_time_mt=0, deadline_mt=100_000,
        )

    def test_idle_segment(self, harness):
        *_, trace, __, dynamic = harness
        dynamic.execute_cycle(0, no_arrivals)
        assert len(trace) == 0
        # Every minislot collapsed to an idle dynamic slot.
        idle = [r for r in dynamic.last_cycle_results if not r.transmitted]
        assert len(idle) == 80  # 40 minislots x 2 channels

    def test_transmission_consumes_frame_minislots(self, harness):
        params, layout, channels, policy, trace, __, dynamic = harness
        pending = self._dyn_pending(params, payload=64)
        policy.dynamic_script[(Channel.A, params.first_dynamic_slot_id)] = \
            [pending]
        dynamic.execute_cycle(0, no_arrivals)
        sent = [r for r in dynamic.last_cycle_results if r.transmitted]
        assert len(sent) == 1
        assert sent[0].minislots_consumed == \
            params.minislots_for_bits(64)

    def test_record_fields(self, harness):
        params, layout, *_rest = harness
        __, __, __, policy, trace, __, dynamic = harness
        pending = self._dyn_pending(params)
        policy.dynamic_script[(Channel.A, params.first_dynamic_slot_id)] = \
            [pending]
        dynamic.execute_cycle(0, no_arrivals)
        record = trace.records[0]
        assert record.segment == "dynamic"
        segment_start, __ = layout.dynamic_segment_window(0)
        assert record.start == segment_start + \
            params.gd_minislot_action_point_offset_mt

    def test_slot_ids_advance_per_dynamic_slot(self, harness):
        params, *_rest = harness
        __, __, __, policy, __, __, dynamic = harness
        late_slot = params.first_dynamic_slot_id + 3
        pending = self._dyn_pending(params, slot_id=late_slot)
        policy.dynamic_script[(Channel.A, late_slot)] = [pending]
        dynamic.execute_cycle(0, no_arrivals)
        sent = [r for r in dynamic.last_cycle_results if r.transmitted]
        assert sent[0].slot_id == late_slot
        # Three idle minislots elapsed before the transmission.
        a_results = [r for r in dynamic.last_cycle_results
                     if r.channel is Channel.A]
        assert [r.transmitted for r in a_results[:4]] == \
            [False, False, False, True]

    def test_oversized_for_remainder_is_held(self, harness):
        params, *_rest = harness
        __, __, __, policy, trace, __, dynamic = harness
        # A maximal frame near the end of the segment cannot fit.
        big = make_pending(
            frame=make_frame(frame_id=params.first_dynamic_slot_id + 35,
                             payload_bits=2000, kind=FrameKind.DYNAMIC),
            generation_time_mt=0, deadline_mt=100_000,
        )
        policy.dynamic_script[
            (Channel.A, params.first_dynamic_slot_id + 35)] = [big]
        dynamic.execute_cycle(0, no_arrivals)
        assert len(trace) == 0
        assert policy.holds == [big]

    def test_zero_minislots_segment_skipped(self, small_params):
        params = small_params.with_minislots(0)
        layout = CycleLayout(params)
        channels = ChannelSet(2)
        policy = ScriptedPolicy()
        trace = TraceRecorder()
        engine = DynamicSegmentEngine(params, layout, channels, policy,
                                      lambda c, b, t: False, trace)
        engine.execute_cycle(0, no_arrivals)
        assert len(trace) == 0

    def test_channels_arbitrate_independently(self, harness):
        params, *_rest = harness
        __, __, __, policy, trace, __, dynamic = harness
        slot = params.first_dynamic_slot_id
        policy.dynamic_script[(Channel.A, slot)] = [self._dyn_pending(params)]
        policy.dynamic_script[(Channel.B, slot)] = [self._dyn_pending(params)]
        dynamic.execute_cycle(0, no_arrivals)
        assert {r.channel for r in trace} == {"A", "B"}

    def test_latest_tx_gate_blocks_late_start(self, small_params):
        import dataclasses
        params = dataclasses.replace(small_params, p_latest_tx_minislot=2)
        layout = CycleLayout(params)
        channels = ChannelSet(2)
        policy = ScriptedPolicy()
        trace = TraceRecorder()
        engine = DynamicSegmentEngine(params, layout, channels, policy,
                                      lambda c, b, t: False, trace)
        late_slot = params.first_dynamic_slot_id + 5
        policy.dynamic_script[(Channel.A, late_slot)] = [
            make_pending(
                frame=make_frame(frame_id=late_slot, payload_bits=64,
                                 kind=FrameKind.DYNAMIC),
                generation_time_mt=0, deadline_mt=100_000,
            )
        ]
        engine.execute_cycle(0, no_arrivals)
        # Slot 5 positions past pLatestTx = 2: never asked, never sent.
        assert len(trace) == 0

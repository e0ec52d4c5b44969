"""Unit tests for signal-to-frame packing."""

import pytest

from repro.protocol.frame import FrameKind
from repro.flexray.params import MAX_PAYLOAD_BITS
from repro.protocol.signal import Signal, SignalSet
from repro.packing.frame_packing import derive_params_for, pack_signals
from repro.sim.rng import RngStream


def signal(name="s", ecu=0, period=0.8, offset=0.0, deadline=None,
           size=100, aperiodic=False, priority=None):
    return Signal(name=name, ecu=ecu, period_ms=period, offset_ms=offset,
                  deadline_ms=deadline if deadline is not None else period,
                  size_bits=size, aperiodic=aperiodic, priority=priority)


class TestMerging:
    def test_same_ecu_same_period_merged(self, small_params):
        signals = SignalSet([
            signal(name="a", size=100),
            signal(name="b", size=80),
        ])
        result = pack_signals(signals, small_params)
        periodic = result.periodic_messages()
        assert len(periodic) == 1
        message = periodic[0]
        assert message.payload_bits == 180
        assert set(message.member_signals) == {"a", "b"}

    def test_different_ecu_not_merged(self, small_params):
        signals = SignalSet([
            signal(name="a", ecu=0, size=100),
            signal(name="b", ecu=1, size=80),
        ])
        result = pack_signals(signals, small_params)
        assert len(result.periodic_messages()) == 2

    def test_different_period_not_merged(self, small_params):
        signals = SignalSet([
            signal(name="a", period=0.8, size=100),
            signal(name="b", period=1.6, size=80),
        ])
        result = pack_signals(signals, small_params)
        assert len(result.periodic_messages()) == 2

    def test_capacity_respected(self, small_params):
        capacity = small_params.static_slot_capacity_bits
        signals = SignalSet([
            signal(name="a", size=capacity - 10),
            signal(name="b", size=capacity - 10),
        ])
        result = pack_signals(signals, small_params)
        assert len(result.periodic_messages()) == 2
        for message in result.periodic_messages():
            assert message.payload_bits <= capacity

    def test_merged_frame_conservative_timing(self, small_params):
        signals = SignalSet([
            signal(name="a", size=50, offset=0.1, deadline=0.7),
            signal(name="b", size=50, offset=0.3, deadline=0.5),
        ])
        result = pack_signals(signals, small_params)
        message = result.periodic_messages()[0]
        assert message.offset_ms == pytest.approx(0.3)   # max offset
        assert message.deadline_ms == pytest.approx(0.5)  # min deadline


class TestSplitting:
    def test_oversized_signal_chunked(self, small_params):
        capacity = small_params.static_slot_capacity_bits
        signals = SignalSet([signal(name="big", size=capacity * 2 + 10)])
        result = pack_signals(signals, small_params)
        message = result.periodic_messages()[0]
        assert message.chunk_count == 3
        assert message.payload_bits == capacity * 2 + 10
        for chunk in message.chunks:
            assert chunk.payload_bits <= capacity
            assert chunk.chunk_count == 3

    def test_chunk_sizes_even(self, small_params):
        capacity = small_params.static_slot_capacity_bits
        signals = SignalSet([signal(name="big", size=capacity + 2)])
        result = pack_signals(signals, small_params)
        sizes = [c.payload_bits for c in result.periodic_messages()[0].chunks]
        assert max(sizes) - min(sizes) <= 1


class TestGroupExpansion:
    def test_sub_cycle_period_expanded(self, small_params):
        # Period 0.2 ms against a 0.8 ms cycle -> 4 groups.
        signals = SignalSet([signal(name="fast", period=0.2, size=50)])
        result = pack_signals(signals, small_params)
        groups = result.periodic_messages()
        assert len(groups) == 4
        assert {m.message_id for m in groups} == \
            {f"fast@g{i}" for i in range(4)}
        for index, message in enumerate(sorted(groups,
                                               key=lambda m: m.offset_ms)):
            assert message.period_ms == pytest.approx(0.8)
            assert message.offset_ms == pytest.approx(index * 0.2)

    def test_super_cycle_period_single_group(self, small_params):
        signals = SignalSet([signal(name="slow", period=3.2, size=50)])
        result = pack_signals(signals, small_params)
        messages = result.periodic_messages()
        assert len(messages) == 1
        assert messages[0].message_id == "slow"
        assert messages[0].chunks[0].cycle_repetition == 4

    def test_repetition_respects_deadline(self, small_params):
        # Period 3.2 ms but deadline 0.8 ms: must fire every cycle.
        signals = SignalSet([signal(name="tight", period=3.2, deadline=0.8,
                                    size=50)])
        result = pack_signals(signals, small_params)
        assert result.periodic_messages()[0].chunks[0].cycle_repetition == 1

    def test_repetition_prefers_divisible(self, small_params):
        # Period 2.4 ms on a 0.8 ms cycle: rep 2 would give a 1.6 ms
        # service interval that does not divide 2.4 -> falls back, but
        # rep 3 is not a power of two either, so rep 1 is chosen.
        signals = SignalSet([signal(name="odd", period=2.4, size=50)])
        result = pack_signals(signals, small_params)
        assert result.periodic_messages()[0].chunks[0].cycle_repetition == 1


class TestAperiodics:
    def test_aperiodic_message(self, small_params):
        signals = SignalSet([signal(name="evt", aperiodic=True, size=120,
                                    priority=3)])
        result = pack_signals(signals, small_params)
        aperiodic = result.aperiodic_messages()
        assert len(aperiodic) == 1
        assert aperiodic[0].chunks[0].kind is FrameKind.DYNAMIC

    def test_frame_ids_follow_priority(self, small_params):
        signals = SignalSet([
            signal(name="low", aperiodic=True, priority=9),
            signal(name="high", aperiodic=True, priority=1),
        ])
        result = pack_signals(signals, small_params)
        ids = result.dynamic_frame_ids()
        assert ids["high"] == small_params.first_dynamic_slot_id
        assert ids["low"] == small_params.first_dynamic_slot_id + 1

    def test_oversized_aperiodic_strict(self, small_params):
        signals = SignalSet([signal(name="huge", aperiodic=True,
                                    size=MAX_PAYLOAD_BITS + 1)])
        with pytest.raises(ValueError):
            pack_signals(signals, small_params)


class TestSources:
    def test_sources_cover_all_messages(self, small_params, tiny_workload):
        result = pack_signals(tiny_workload, small_params)
        sources = result.build_sources(RngStream(1, "src"))
        assert len(sources) == len(result.messages)

    def test_instance_limit_propagates(self, small_params, tiny_workload):
        result = pack_signals(tiny_workload, small_params)
        sources = result.build_sources(RngStream(1, "src"), instance_limit=5)
        assert all(s.expected_instances == 5 for s in sources)

    def test_summary(self, small_params, tiny_workload):
        result = pack_signals(tiny_workload, small_params)
        summary = result.summary()
        assert summary["periodic"] + summary["aperiodic"] == \
            summary["messages"]


class TestDeriveParams:
    def test_fits_workload(self, tiny_workload):
        params = derive_params_for(tiny_workload, cycle_ms=2.0, minislots=25)
        packing = pack_signals(tiny_workload, params)
        largest = max(f.payload_bits for f in packing.static_frames())
        assert largest <= params.static_slot_capacity_bits

    def test_bbw_feasible(self):
        from repro.workloads.bbw import bbw_signals
        params = derive_params_for(bbw_signals(), cycle_ms=4.0,
                                   minislots=50, slot_headroom=1.1)
        packing = pack_signals(bbw_signals(), params)
        from repro.protocol.schedule import ChannelStrategy, build_dual_schedule
        table = build_dual_schedule(packing.static_frames(), params,
                                    ChannelStrategy.DISTRIBUTE)
        assert table is not None

    def test_rejects_impossible(self):
        heavy = SignalSet([
            signal(name=f"h{i}", period=0.8, size=1500) for i in range(40)
        ])
        with pytest.raises(ValueError):
            derive_params_for(heavy, cycle_ms=1.0, minislots=100)

    def test_headroom_adds_slots(self, tiny_workload):
        lean = derive_params_for(tiny_workload, cycle_ms=2.0, minislots=25,
                                 slot_headroom=1.0)
        padded = derive_params_for(tiny_workload, cycle_ms=2.0, minislots=25,
                                   slot_headroom=2.0)
        assert padded.g_number_of_static_slots >= \
            lean.g_number_of_static_slots

    def test_rejects_headroom_below_one(self, tiny_workload):
        with pytest.raises(ValueError):
            derive_params_for(tiny_workload, slot_headroom=0.5)

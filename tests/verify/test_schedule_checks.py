"""FRS* rules over schedule tables, built and hand-broken."""

from types import SimpleNamespace

from repro.protocol.channel import Channel
from repro.protocol.frame import Frame
from repro.flexray.params import FlexRayParams, paper_dynamic_preset
from repro.protocol.schedule import (
    ChannelStrategy,
    SlotAssignment,
    build_dual_schedule,
)
from repro.packing.frame_packing import pack_signals
from repro.verify.schedule_checks import check_schedule
from repro.workloads.synthetic import synthetic_signals

PARAMS = FlexRayParams()


def frame(slot_id, message="m", payload=64, base=0, rep=1):
    return Frame(frame_id=slot_id, message_id=message,
                 payload_bits=payload, producer_ecu=0,
                 base_cycle=base, cycle_repetition=rep)


def table_with(assignments, channel=Channel.A):
    return {channel: assignments}


class TestGoldenSchedules:
    def test_built_table_is_clean(self):
        params = paper_dynamic_preset(100)
        signals = synthetic_signals(12, seed=7, max_size_bits=216)
        packing = pack_signals(signals, params)
        table = build_dual_schedule(packing.static_frames(), params,
                                    strategy=ChannelStrategy.DISTRIBUTE)
        report = check_schedule(table, params)
        assert len(report) == 0

    def test_empty_mapping_is_clean(self):
        assert len(check_schedule({Channel.A: []}, PARAMS)) == 0


class TestBrokenSchedules:
    def test_frs101_slot_out_of_range(self):
        too_big = PARAMS.g_number_of_static_slots + 1
        schedule = table_with([
            SlotAssignment(slot_id=too_big, frame=frame(too_big)),
        ])
        assert "FRS101" in check_schedule(schedule, PARAMS).rule_ids()

    def test_frs102_conflicting_sharers(self):
        # base 0 / rep 1 collides with every pattern in the same slot.
        schedule = table_with([
            SlotAssignment(slot_id=5, frame=frame(5, "a", base=0, rep=1)),
            SlotAssignment(slot_id=5, frame=frame(5, "b", base=0, rep=2)),
        ])
        report = check_schedule(schedule, PARAMS)
        assert report.rule_ids() == ["FRS102"]
        assert "a" in report.diagnostics[0].message
        assert "b" in report.diagnostics[0].message

    def test_frs102_disjoint_sharers_are_fine(self):
        schedule = table_with([
            SlotAssignment(slot_id=5, frame=frame(5, "a", base=0, rep=2)),
            SlotAssignment(slot_id=5, frame=frame(5, "b", base=1, rep=2)),
        ])
        assert len(check_schedule(schedule, PARAMS)) == 0

    def test_frs103_payload_exceeds_capacity(self):
        oversized = PARAMS.static_slot_capacity_bits + 8
        schedule = table_with([
            SlotAssignment(slot_id=3, frame=frame(3, payload=oversized)),
        ])
        assert "FRS103" in check_schedule(schedule, PARAMS).rule_ids()

    def test_frs104_channel_b_on_single_channel_cluster(self):
        single = PARAMS.with_channels(1)
        schedule = table_with(
            [SlotAssignment(slot_id=1, frame=frame(1))],
            channel=Channel.B,
        )
        assert "FRS104" in check_schedule(schedule, single).rule_ids()

    def test_frs105_frame_id_mismatch(self):
        schedule = table_with([
            SlotAssignment(slot_id=7, frame=frame(6)),
        ])
        assert "FRS105" in check_schedule(schedule, PARAMS).rule_ids()

    def test_frs106_invalid_cycle_pattern(self):
        # Frame's own constructor rejects rep=3, so model a deserialized
        # table entry that bypassed it.
        bogus = SimpleNamespace(frame_id=4, message_id="x",
                                payload_bits=64, base_cycle=0,
                                cycle_repetition=3)
        schedule = table_with([SimpleNamespace(slot_id=4, frame=bogus)])
        assert "FRS106" in check_schedule(schedule, PARAMS).rule_ids()

    def test_frs106_base_outside_repetition(self):
        bogus = SimpleNamespace(frame_id=4, message_id="x",
                                payload_bits=64, base_cycle=2,
                                cycle_repetition=2)
        schedule = table_with([SimpleNamespace(slot_id=4, frame=bogus)])
        assert "FRS106" in check_schedule(schedule, PARAMS).rule_ids()

    def test_wrong_params_pairing_is_caught(self):
        """A table built for one preset, verified against another."""
        params = paper_dynamic_preset(100)
        signals = synthetic_signals(12, seed=7, max_size_bits=216)
        packing = pack_signals(signals, params)
        table = build_dual_schedule(packing.static_frames(), params)
        # The dynamic preset has 25 slots of 216-bit capacity; the
        # default cluster has 80 slots but a mismatched geometry.
        tiny = FlexRayParams(gd_static_slot_mt=10,
                             g_number_of_static_slots=10,
                             gd_cycle_mt=5000)
        report = check_schedule(table, tiny)
        assert report.has_errors

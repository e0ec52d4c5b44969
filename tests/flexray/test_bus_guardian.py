"""Tests for babbling-idiot containment via the bus guardian."""

import pytest

from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.flexray.bus_guardian import BabblingIdiotScenario
from repro.protocol.channel import Channel
from repro.protocol.cluster import Cluster
from repro.protocol.schedule import ChannelStrategy, build_dual_schedule
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream


@pytest.fixture
def setup(small_params, tiny_workload):
    packing = pack_signals(tiny_workload, small_params)
    table = build_dual_schedule(packing.static_frames(), small_params,
                                ChannelStrategy.DISTRIBUTE)
    return packing, table


class TestScenarioMechanics:
    def test_validation(self, small_params, setup):
        __, table = setup
        with pytest.raises(ValueError):
            BabblingIdiotScenario(small_params, table, faulty_node=-1)
        with pytest.raises(ValueError):
            BabblingIdiotScenario(small_params, table, faulty_node=0,
                                  babble_duty=1.5)

    def test_quiet_before_start(self, small_params, setup):
        __, table = setup
        scenario = BabblingIdiotScenario(small_params, table,
                                         faulty_node=0, start_mt=10_000,
                                         guardian=False)
        assert not scenario(Channel.A, 100, 500)

    def test_uncontained_corrupts_everything(self, small_params, setup):
        __, table = setup
        scenario = BabblingIdiotScenario(small_params, table,
                                         faulty_node=0, guardian=False)
        assert all(scenario(Channel.A, 100, t) for t in range(0, 800, 50))

    def test_contained_corrupts_only_owned_slots(self, small_params, setup):
        __, table = setup
        scenario = BabblingIdiotScenario(small_params, table,
                                         faulty_node=0, guardian=True)
        owned = scenario.owned_slots(Channel.A) | \
            scenario.owned_slots(Channel.B)
        assert owned  # ECU 0 produces something in the tiny workload
        for channel in (Channel.A, Channel.B):
            for slot in range(1, small_params.g_number_of_static_slots + 1):
                time_in_slot = (slot - 1) * small_params.gd_static_slot_mt + 1
                hit = scenario(channel, 100, time_in_slot)
                assert hit == (slot in scenario.owned_slots(channel))

    def test_contained_dynamic_segment_clean(self, small_params, setup):
        __, table = setup
        scenario = BabblingIdiotScenario(small_params, table,
                                         faulty_node=0, guardian=True)
        dynamic_time = small_params.static_segment_mt + 10
        assert not scenario(Channel.A, 100, dynamic_time)

    def test_duty_cycle(self, small_params, setup):
        __, table = setup
        scenario = BabblingIdiotScenario(
            small_params, table, faulty_node=0, guardian=False,
            babble_duty=0.3, rng=RngStream(3, "duty-test"))
        hits = sum(scenario(Channel.A, 100, t) for t in range(2000))
        assert 0.2 < hits / 2000 < 0.4


class TestClusterImpact:
    def _run(self, small_params, packing, table, guardian):
        scenario = BabblingIdiotScenario(
            small_params, table, faulty_node=0, start_mt=0,
            guardian=guardian)
        policy = CoEfficientPolicy(
            packing, BitErrorRateModel(ber_channel_a=0.0),
            reliability_goal=1 - 1e-6, time_unit_ms=100.0)
        cluster = Cluster(
            params=small_params, policy=policy,
            sources=packing.build_sources(RngStream(4, "babble")),
            corrupts=scenario)
        cluster.run_for_ms(30.0)
        return cluster, scenario

    def test_uncontained_babble_kills_cluster(self, small_params, setup):
        packing, table = setup
        cluster, scenario = self._run(small_params, packing, table,
                                      guardian=False)
        trace = cluster.trace
        assert scenario.collisions > 0
        assert trace.delivered_count() == 0  # nothing survives

    def test_guardian_contains_babble(self, small_params, setup):
        packing, table = setup
        cluster, scenario = self._run(small_params, packing, table,
                                      guardian=True)
        trace = cluster.trace
        # Messages NOT produced by the faulty node keep flowing.
        healthy = {
            message.message_id for message in packing.messages
            if all(c.producer_ecu != 0 for c in message.chunks)
        }
        delivered = {
            record.message_id for record in trace
            if record.outcome.value == "delivered"
        }
        assert healthy <= delivered
        # The faulty node's own messages are lost (its output is garbage).
        faulty = {
            message.message_id for message in packing.messages
            if any(c.producer_ecu == 0 for c in message.chunks)
            and not message.aperiodic
        }
        assert faulty
        assert not (faulty & delivered)

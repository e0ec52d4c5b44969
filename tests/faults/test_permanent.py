"""Unit and integration tests for permanent faults."""

import pytest

from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.faults.permanent import PermanentFaultScenario
from repro.protocol.channel import Channel
from repro.protocol.cluster import Cluster
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream
from repro.sim.trace import TransmissionOutcome


class TestScenario:
    def test_clean_by_default(self):
        scenario = PermanentFaultScenario()
        assert not scenario(Channel.A, 100, 0)

    def test_channel_dies_at_failure_time(self):
        scenario = PermanentFaultScenario(
            channel_failures={Channel.B: 1000})
        assert not scenario(Channel.B, 100, 999)
        assert scenario(Channel.B, 100, 1000)
        assert scenario(Channel.B, 100, 50_000)
        assert not scenario(Channel.A, 100, 50_000)

    def test_repair_window(self):
        scenario = PermanentFaultScenario(
            channel_failures={Channel.A: 100},
            channel_repairs={Channel.A: 200},
        )
        assert scenario(Channel.A, 64, 150)
        assert not scenario(Channel.A, 64, 200)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            PermanentFaultScenario(channel_failures={Channel.A: -1})
        with pytest.raises(ValueError):
            PermanentFaultScenario(channel_failures={Channel.A: 100},
                                   channel_repairs={Channel.A: 100})

    def test_inner_oracle_consulted_when_alive(self):
        calls = []

        def inner(channel, bits, time_mt):
            calls.append(time_mt)
            return False

        scenario = PermanentFaultScenario(
            inner=inner, channel_failures={Channel.A: 1000})
        scenario(Channel.A, 64, 10)     # alive: inner consulted
        scenario(Channel.A, 64, 2000)   # dead: inner skipped
        assert calls == [10]

    def test_counts_permanent_corruptions(self):
        scenario = PermanentFaultScenario(
            channel_failures={Channel.A: 0})
        for t in range(5):
            scenario(Channel.A, 64, t)
        assert scenario.permanent_corruptions == 5


class TestChannelLossSurvival:
    """The dual-channel promise: losing one channel degrades, not kills."""

    def _run(self, small_params, tiny_workload, fail_channel):
        packing = pack_signals(tiny_workload, small_params)
        scenario = PermanentFaultScenario(
            channel_failures={fail_channel: 0} if fail_channel else {})
        policy = CoEfficientPolicy(
            packing, BitErrorRateModel(ber_channel_a=0.0),
            reliability_goal=1 - 1e-6, time_unit_ms=100.0,
        )
        cluster = Cluster(
            params=small_params, policy=policy,
            sources=packing.build_sources(RngStream(5, "perm")),
            corrupts=scenario,
        )
        cluster.run_for_ms(30.0)
        return cluster

    def test_baseline_everything_delivered(self, small_params,
                                           tiny_workload):
        cluster = self._run(small_params, tiny_workload, None)
        trace = cluster.trace
        assert trace.delivered_count() == trace.instance_count()

    def test_channel_b_loss_mostly_survived(self, small_params,
                                            tiny_workload):
        """Frames scheduled on the dead channel are saved by the
        retransmission copies riding the surviving channel's slack."""
        cluster = self._run(small_params, tiny_workload, Channel.B)
        trace = cluster.trace
        delivered_fraction = trace.delivered_count() / trace.instance_count()
        # Channel B carries a share of the schedule; without copies that
        # share would be lost entirely.  The plan's copies recover most.
        assert delivered_fraction > 0.8
        # And something really was transmitted (corrupted) on B.
        b_corrupted = [
            r for r in trace
            if r.channel == "B"
            and r.outcome is TransmissionOutcome.CORRUPTED
        ]
        assert b_corrupted

    def test_recovered_instances_used_channel_a(self, small_params,
                                                tiny_workload):
        cluster = self._run(small_params, tiny_workload, Channel.B)
        trace = cluster.trace
        delivered_on_b = [
            r for r in trace
            if r.channel == "B"
            and r.outcome is TransmissionOutcome.DELIVERED
        ]
        assert delivered_on_b == []

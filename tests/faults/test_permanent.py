"""Dual-channel behaviour when one channel fails permanently.

Section III-E: "physical damages generally cause the permanent faults
that incur long-term malfunctioning".  A dead channel is a fault oracle
that corrupts every frame on it for the whole run.
"""

from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.protocol.channel import Channel
from repro.protocol.cluster import Cluster
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream
from repro.sim.trace import TransmissionOutcome


class TestChannelLossSurvival:
    """The dual-channel promise: losing one channel degrades, not kills."""

    def _run(self, small_params, tiny_workload, fail_channel):
        packing = pack_signals(tiny_workload, small_params)
        policy = CoEfficientPolicy(
            packing, BitErrorRateModel(ber_channel_a=0.0),
            reliability_goal=1 - 1e-6, time_unit_ms=100.0,
        )
        cluster = Cluster(
            params=small_params, policy=policy,
            sources=packing.build_sources(RngStream(5, "perm")),
            corrupts=lambda channel, bits, time_mt: channel is fail_channel,
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

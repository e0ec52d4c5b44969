"""Unit tests for the baseline policies."""

import pytest

from repro.baselines.dynamic_priority import DynamicPriorityPolicy
from repro.baselines.fspec import FspecPolicy
from repro.baselines.static_only import StaticOnlyPolicy
from repro.protocol.channel import Channel
from repro.protocol.cluster import Cluster
from repro.protocol.schedule import ChannelStrategy
from repro.sim.rng import RngStream
from repro.sim.trace import TransmissionOutcome


def bound(policy_class, params, packing, **kwargs):
    policy = policy_class(packing, **kwargs)
    sources = packing.build_sources(RngStream(3, "baseline-test"))
    cluster = Cluster(params=params, policy=policy, sources=sources)
    cluster._ensure_bound()
    return policy, cluster


class TestFspec:
    def test_duplicates_static_frames(self, small_params, tiny_packing):
        policy, __ = bound(FspecPolicy, small_params, tiny_packing)
        assert policy.channel_strategy() == \
            ChannelStrategy.DUPLICATE_BEST_EFFORT
        messages_a = {f.message_id for f in policy.table.frames(Channel.A)}
        messages_b = {f.message_id for f in policy.table.frames(Channel.B)}
        assert messages_a & messages_b  # duplicated copies exist

    def test_single_copy_mode(self, small_params, tiny_packing):
        policy, __ = bound(FspecPolicy, small_params, tiny_packing,
                           duplicate_static=False)
        assert policy.channel_strategy() == ChannelStrategy.DISTRIBUTE

    def test_dynamic_on_channel_a_only(self, small_params, tiny_packing):
        policy, cluster = bound(FspecPolicy, small_params, tiny_packing)
        assert policy.serves_dynamic(Channel.A)
        assert not policy.serves_dynamic(Channel.B)
        cluster.run_cycles(30)
        dynamic_records = cluster.trace.records_for_segment("dynamic")
        assert dynamic_records
        assert {r.channel for r in dynamic_records} == {"A"}

    def test_duplicated_messages_get_no_extra_copies(self, small_params,
                                                     tiny_packing):
        policy, cluster = bound(FspecPolicy, small_params, tiny_packing)
        cluster.run_cycles(4)
        # Periodic messages are all duplicated on B in this small
        # workload, so only the dynamics (a1, a2) enqueue copies.
        for __, ___, pending in policy._retx_heap:
            assert pending.message_id.startswith("a")

    def test_retransmission_copies_parameter(self, small_params,
                                             tiny_packing):
        policy0, cluster0 = bound(FspecPolicy, small_params, tiny_packing,
                                  retransmission_copies=0)
        cluster0.run_cycles(10)
        assert policy0.counters["retx_enqueued"] == 0
        with pytest.raises(ValueError):
            FspecPolicy(tiny_packing, retransmission_copies=-1)

    def test_idle_static_slots_stay_idle(self, small_params, tiny_packing):
        policy, cluster = bound(FspecPolicy, small_params, tiny_packing)
        cluster.run_cycles(20)
        # No dynamic message ever rides a static slot under FSPEC.
        for record in cluster.trace.records_for_segment("static"):
            assert not record.message_id.startswith("a")

    def test_feedback_mode_retries(self, small_params, tiny_packing):
        policy = FspecPolicy(tiny_packing, feedback=True)
        sources = tiny_packing.build_sources(RngStream(3, "fspec-fb"))
        cluster = Cluster(
            params=small_params, policy=policy, sources=sources,
            corrupts=lambda c, b, t: True,
        )
        cluster.run_cycles(5)
        assert policy.counters["retx_enqueued"] > 0


class TestStaticOnly:
    def test_no_retransmissions_ever(self, small_params, tiny_packing):
        policy = StaticOnlyPolicy(tiny_packing)
        sources = tiny_packing.build_sources(RngStream(3, "so"))
        cluster = Cluster(
            params=small_params, policy=policy, sources=sources,
            corrupts=lambda c, b, t: True,
        )
        cluster.run_cycles(10)
        assert policy.counters["retx_enqueued"] == 0
        assert all(not r.is_retransmission for r in cluster.trace)

    def test_no_reserved_retx_slot(self, small_params, tiny_packing):
        policy, __ = bound(StaticOnlyPolicy, small_params, tiny_packing)
        assert policy.retransmission_slot_id is None

    def test_duplicates_for_fault_tolerance(self, small_params,
                                            tiny_packing):
        policy, cluster = bound(StaticOnlyPolicy, small_params, tiny_packing)
        cluster.run_cycles(8)
        static_records = cluster.trace.records_for_segment("static")
        channels = {r.channel for r in static_records}
        assert channels == {"A", "B"}


class TestDynamicPriority:
    def test_dual_channel_dynamic(self, small_params, tiny_packing):
        policy, cluster = bound(DynamicPriorityPolicy, small_params,
                                tiny_packing)
        assert policy.serves_dynamic(Channel.A)
        assert policy.serves_dynamic(Channel.B)

    def test_single_copy_static(self, small_params, tiny_packing):
        policy, __ = bound(DynamicPriorityPolicy, small_params, tiny_packing)
        messages_a = {f.message_id for f in policy.table.frames(Channel.A)}
        messages_b = {f.message_id for f in policy.table.frames(Channel.B)}
        assert not messages_a & messages_b

    def test_fault_oblivious(self, small_params, tiny_packing):
        policy = DynamicPriorityPolicy(tiny_packing)
        sources = tiny_packing.build_sources(RngStream(3, "dp"))
        cluster = Cluster(
            params=small_params, policy=policy, sources=sources,
            corrupts=lambda c, b, t: True,
        )
        cluster.run_cycles(10)
        assert policy.counters["retx_enqueued"] == 0

    def test_delivers_dynamics(self, small_params, tiny_packing):
        policy, cluster = bound(DynamicPriorityPolicy, small_params,
                                tiny_packing)
        cluster.run_cycles(30)
        delivered = {
            r.message_id for r in cluster.trace
            if r.outcome is TransmissionOutcome.DELIVERED
        }
        assert "a1" in delivered

"""Detailed tests of the queueing base's internal mechanics."""

import pytest

from repro.core.queueing import QueueingPolicyBase
from repro.protocol.channel import Channel
from repro.protocol.cluster import Cluster
from repro.protocol.schedule import ChannelStrategy
from repro.sim.rng import RngStream

from tests.flexray.test_frame import make_frame, make_pending


class MinimalPolicy(QueueingPolicyBase):
    """Concrete base with no overrides beyond the required strategy."""

    name = "minimal"

    def channel_strategy(self) -> str:
        return ChannelStrategy.DISTRIBUTE


def bound_minimal(params, packing, **kwargs):
    policy = MinimalPolicy(packing, **kwargs)
    sources = packing.build_sources(RngStream(8, "minimal"))
    cluster = Cluster(params=params, policy=policy,
                      sources=sources)
    cluster._ensure_bound()
    return policy, cluster


class TestBaseDefaults:
    def test_no_redundancy_by_default(self, small_params, tiny_packing):
        policy, cluster = bound_minimal(small_params, tiny_packing)
        cluster.run_cycles(10)
        assert policy.counters["retx_enqueued"] == 0

    def test_idle_slots_stay_idle(self, small_params, tiny_packing):
        policy, cluster = bound_minimal(small_params, tiny_packing)
        cluster.run_cycles(10)
        assert policy.counters["slack_steals"] == 0

    def test_rejects_negative_optimize_iterations(self, tiny_packing):
        with pytest.raises(ValueError):
            MinimalPolicy(tiny_packing, optimize_iterations=-1)

    def test_counters_present(self, small_params, tiny_packing):
        policy, __ = bound_minimal(small_params, tiny_packing)
        for key in ("primary_tx", "retx_tx", "dynamic_tx", "slack_steals",
                    "retx_enqueued", "retx_abandoned", "stale_drops"):
            assert key in policy.counters


class TestBufferSemantics:
    def test_displaced_instance_never_delivered(self, small_params,
                                                tiny_packing):
        """Two writes before a take: the first instance is displaced and
        its delivery never happens (sensor freshest-value semantics)."""
        policy, cluster = bound_minimal(small_params, tiny_packing)
        placements = policy._placements[("p1", 0)]
        channel, __ = placements[0]
        buffer = policy._buffers[("p1", 0, channel)]
        first = make_pending(frame=make_frame(message_id="p1"),
                             generation_time_mt=0, deadline_mt=10_000)
        second = make_pending(frame=make_frame(message_id="p1"),
                              generation_time_mt=100, deadline_mt=10_000)
        buffer.write(first)
        displaced = buffer.write(second)
        assert displaced is first
        assert buffer.peek() is second


class TestStatusPruning:
    def test_chunk_status_pruned(self, small_params, tiny_packing):
        policy, cluster = bound_minimal(small_params, tiny_packing)
        cluster.run_cycles(130)  # > 2 prune intervals of 64 cycles
        # Status map stays bounded: far fewer entries than total
        # delivered instances over the run.
        produced = cluster.trace.instance_count()
        assert produced > 100
        assert len(policy._chunk_status) < produced


class TestRetransmissionHeap:
    def test_edf_order(self, small_params, tiny_packing):
        policy, __ = bound_minimal(small_params, tiny_packing)
        late = make_pending(deadline_mt=5000)
        early = make_pending(deadline_mt=1000)
        policy.push_retransmission(late)
        policy.push_retransmission(early)
        assert policy.pop_retransmission(None, now_mt=0) is early
        assert policy.pop_retransmission(None, now_mt=0) is late

    def test_fit_filter_skips_but_keeps(self, small_params, tiny_packing):
        policy, __ = bound_minimal(small_params, tiny_packing)
        big = make_pending(frame=make_frame(payload_bits=500),
                           deadline_mt=1000)
        small = make_pending(frame=make_frame(payload_bits=100),
                             deadline_mt=5000)
        policy.push_retransmission(big)
        policy.push_retransmission(small)
        # Capacity excludes the big frame: the small one is served, the
        # big one stays queued.
        popped = policy.pop_retransmission(fit_bits=200, now_mt=0)
        assert popped is small
        assert policy.pop_retransmission(fit_bits=1000, now_mt=0) is big

    def test_expiry_respects_drop_flag(self, small_params, tiny_packing):
        keep = MinimalPolicy(tiny_packing, drop_expired_dynamic=False)
        drop = MinimalPolicy(tiny_packing, drop_expired_dynamic=True)
        for policy in (keep, drop):
            stale = make_pending(deadline_mt=100)
            policy.push_retransmission(stale)
        assert keep.pop_retransmission(None, now_mt=5000) is not None
        assert drop.pop_retransmission(None, now_mt=5000) is None


class TestDynamicHoldRestoration:
    def test_hold_restores_to_head(self, small_params, tiny_packing):
        policy, cluster = bound_minimal(small_params, tiny_packing)
        cluster._deliver_arrivals_until(5 * small_params.gd_cycle_mt)
        slot_id = next(iter(policy._dynamic_queues))
        queue = policy._dynamic_queues[slot_id]
        if queue.empty:
            pytest.skip("no dynamic arrival in window")
        head = queue.peek()
        popped = policy.dynamic_frame_for(Channel.A, slot_id, 0, 100)
        assert popped is head
        policy.on_dynamic_hold(popped, Channel.A)
        assert queue.peek() is head

    def test_backlog_count_consistent(self, small_params, tiny_packing):
        policy, cluster = bound_minimal(small_params, tiny_packing)
        cluster._deliver_arrivals_until(5 * small_params.gd_cycle_mt)
        actual = sum(len(q) for q in policy._dynamic_queues.values())
        assert policy._dynamic_backlog == actual


class TestServesDynamicFiltering:
    def test_channel_b_blocked_for_fspec_style(self, small_params,
                                               tiny_packing):
        class AOnly(MinimalPolicy):
            def serves_dynamic(self, channel):
                return channel is Channel.A

        policy = AOnly(tiny_packing)
        sources = tiny_packing.build_sources(RngStream(8, "aonly"))
        cluster = Cluster(params=small_params, policy=policy,
                          sources=sources)
        cluster._ensure_bound()
        cluster._deliver_arrivals_until(5 * small_params.gd_cycle_mt)
        slot_id = next(iter(policy._dynamic_queues))
        assert policy.dynamic_frame_for(Channel.B, slot_id, 0, 100) is None

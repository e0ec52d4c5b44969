"""Unit tests for the queueing base and the CoEfficient policy."""

import pytest

from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.protocol.cluster import Cluster
from repro.protocol.schedule import ChannelStrategy
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream
from repro.sim.trace import TransmissionOutcome


def bound_policy(params, packing, **kwargs):
    policy = CoEfficientPolicy(
        packing,
        kwargs.pop("ber_model", BitErrorRateModel(ber_channel_a=0.0)),
        reliability_goal=kwargs.pop("reliability_goal", 0.9999),
        **kwargs,
    )
    sources = packing.build_sources(RngStream(3, "policy-test"))
    cluster = Cluster(params=params, policy=policy, sources=sources)
    cluster._ensure_bound()
    return policy, cluster


class TestBinding:
    def test_table_built_with_distribute(self, small_params, tiny_packing):
        policy, __ = bound_policy(small_params, tiny_packing)
        assert policy.channel_strategy() == ChannelStrategy.DISTRIBUTE
        assert policy.table is not None

    def test_unbound_table_raises(self, tiny_packing):
        policy = CoEfficientPolicy(
            tiny_packing, BitErrorRateModel(ber_channel_a=0.0))
        with pytest.raises(RuntimeError):
            policy.table

    def test_plan_computed(self, small_params, tiny_packing):
        policy, __ = bound_policy(
            small_params, tiny_packing,
            ber_model=BitErrorRateModel(ber_channel_a=1e-5),
            reliability_goal=1 - 1e-9,
        )
        assert policy.plan is not None
        assert policy.plan.feasible
        # With a strict goal and visible BER, something is selected.
        assert len(policy.plan.selected_messages()) > 0

    def test_retransmission_slot_reserved(self, small_params, tiny_packing):
        policy, __ = bound_policy(small_params, tiny_packing)
        assert policy.retransmission_slot_id == \
            small_params.first_dynamic_slot_id

    def test_validation(self, tiny_packing):
        with pytest.raises(ValueError):
            CoEfficientPolicy(tiny_packing,
                              BitErrorRateModel(ber_channel_a=0.0),
                              reliability_goal=0.0)
        with pytest.raises(ValueError):
            CoEfficientPolicy(tiny_packing,
                              BitErrorRateModel(ber_channel_a=0.0),
                              time_unit_ms=0.0)


class TestArrivalRouting:
    def test_static_arrival_fills_buffers(self, small_params, tiny_packing):
        policy, cluster = bound_policy(small_params, tiny_packing)
        cluster._deliver_arrivals_until(small_params.gd_cycle_mt)
        assert policy.pending_work() > 0

    def test_dynamic_arrival_joins_soft_pool(self, small_params,
                                             tiny_packing):
        policy, cluster = bound_policy(small_params, tiny_packing)
        cluster._deliver_arrivals_until(3 * small_params.gd_cycle_mt)
        assert policy._dynamic_backlog > 0

    def test_open_loop_copies_enqueued(self, small_params, tiny_packing):
        policy, cluster = bound_policy(
            small_params, tiny_packing,
            ber_model=BitErrorRateModel(ber_channel_a=1e-5),
            reliability_goal=1 - 1e-9,
        )
        cluster._deliver_arrivals_until(2 * small_params.gd_cycle_mt)
        assert policy.counters["retx_enqueued"] > 0


class TestSchedulingBehaviour:
    def test_static_slots_carry_scheduled_frames(self, small_params,
                                                 tiny_packing):
        policy, cluster = bound_policy(small_params, tiny_packing)
        cluster.run_cycles(8)
        static_records = cluster.trace.records_for_segment("static")
        assert static_records
        scheduled = {r.message_id for r in static_records
                     if not r.is_retransmission}
        assert any(m.startswith("p") for m in scheduled)

    def test_slack_stealing_happens(self, small_params, tiny_packing):
        policy, cluster = bound_policy(
            small_params, tiny_packing,
            ber_model=BitErrorRateModel(ber_channel_a=1e-5),
            reliability_goal=1 - 1e-9,
        )
        cluster.run_cycles(12)
        assert policy.counters["slack_steals"] > 0

    def test_dynamic_messages_delivered(self, small_params, tiny_packing):
        policy, cluster = bound_policy(small_params, tiny_packing)
        cluster.run_cycles(30)
        dynamic_ids = {m.message_id
                       for m in tiny_packing.aperiodic_messages()}
        delivered = {
            r.message_id for r in cluster.trace
            if r.outcome is TransmissionOutcome.DELIVERED
        }
        assert dynamic_ids <= delivered

    def test_ablation_no_steal_for_dynamic(self, small_params,
                                           tiny_packing):
        policy, cluster = bound_policy(small_params, tiny_packing,
                                       steal_for_dynamic=False)
        cluster.run_cycles(20)
        # Dynamic frames only ever appear in the dynamic segment.
        for record in cluster.trace.records_for_segment("static"):
            assert not record.message_id.startswith("a"), (
                "dynamic message rode a static slot despite the ablation"
            )

    def test_uniform_budget_ablation(self, small_params, tiny_packing):
        policy, __ = bound_policy(
            small_params, tiny_packing,
            ber_model=BitErrorRateModel(ber_channel_a=1e-5),
            reliability_goal=1 - 1e-9,
            uniform_budget=True,
        )
        budgets = set(policy.plan.budgets.values())
        assert len(budgets) == 1  # same k for every message

    def test_feedback_mode_no_open_loop_copies(self, small_params,
                                               tiny_packing):
        policy, cluster = bound_policy(
            small_params, tiny_packing,
            ber_model=BitErrorRateModel(ber_channel_a=1e-5),
            reliability_goal=1 - 1e-9,
            feedback=True,
        )
        cluster.run_cycles(10)
        # Fault-free run in feedback mode: no failures, no copies.
        assert policy.counters["retx_enqueued"] == 0

    def test_feedback_mode_retries_on_failure(self, small_params,
                                              tiny_packing):
        policy = CoEfficientPolicy(
            tiny_packing, BitErrorRateModel(ber_channel_a=1e-3),
            reliability_goal=1 - 1e-9, feedback=True,
        )
        sources = tiny_packing.build_sources(RngStream(3, "fb"))
        cluster = Cluster(
            params=small_params, policy=policy, sources=sources,
            corrupts=lambda c, b, t: True,  # everything fails
        )
        cluster.run_cycles(5)
        assert policy.counters["retx_enqueued"] > 0

    def test_pending_work_drains(self, small_params, tiny_workload):
        packing = pack_signals(tiny_workload, small_params)
        policy = CoEfficientPolicy(
            packing, BitErrorRateModel(ber_channel_a=0.0),
            reliability_goal=0.9,
        )
        sources = packing.build_sources(RngStream(3, "drain"),
                                        instance_limit=2)
        cluster = Cluster(params=small_params, policy=policy,
                          sources=sources)
        cluster.run_until_complete(max_cycles=500)
        assert policy.pending_work() == 0

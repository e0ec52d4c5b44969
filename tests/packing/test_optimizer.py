"""Unit tests for the schedule optimizer."""

import pytest

from repro.protocol.channel import Channel
from repro.protocol.schedule import ChannelStrategy, build_dual_schedule
from repro.packing.optimizer import (
    ScheduleObjective,
    ScheduleOptimizer,
    schedule_cost,
)
from repro.sim.rng import RngStream

from tests.flexray.test_frame import make_frame


def greedy_table(small_params, count=8, phases=True):
    frames = [
        make_frame(
            message_id=f"m{i}",
            preferred_phase_mt=(i * 97) % small_params.gd_cycle_mt
            if phases else None,
            base_cycle=0,
            cycle_repetition=1,
        )
        for i in range(count)
    ]
    return build_dual_schedule(frames, small_params,
                               ChannelStrategy.DISTRIBUTE)


class TestObjective:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ScheduleObjective(latency_weight=-1.0)

    def test_cost_nonnegative(self, small_params):
        table = greedy_table(small_params)
        assert schedule_cost(table, small_params) >= 0.0


class TestOptimizer:
    def test_never_worsens(self, small_params):
        table = greedy_table(small_params)
        before = schedule_cost(table, small_params)
        optimizer = ScheduleOptimizer(small_params,
                                      rng=RngStream(7, "opt"))
        improved = optimizer.optimize_table(table, iterations=300)
        after = schedule_cost(improved, small_params)
        assert after <= before

    def test_preserves_every_frame(self, small_params):
        table = greedy_table(small_params)
        optimizer = ScheduleOptimizer(small_params,
                                      rng=RngStream(7, "opt"))
        improved = optimizer.optimize_table(table, iterations=300)
        def all_messages(t):
            return sorted(
                f.message_id
                for ch in (Channel.A, Channel.B)
                for f in t.frames(ch)
            )
        assert all_messages(improved) == all_messages(table)

    def test_result_is_valid_table(self, small_params):
        table = greedy_table(small_params)
        optimizer = ScheduleOptimizer(small_params,
                                      rng=RngStream(7, "opt"))
        improved = optimizer.optimize_table(table, iterations=300)
        # lookup never raises and no double-booking (ScheduleTable.assign
        # would have raised during construction if patterns collided).
        for channel in (Channel.A, Channel.B):
            for cycle in range(4):
                for slot in range(1,
                                  small_params.g_number_of_static_slots + 1):
                    improved.lookup(channel, cycle, slot)

    def test_deterministic(self, small_params):
        def run(seed):
            table = greedy_table(small_params)
            optimizer = ScheduleOptimizer(small_params,
                                          rng=RngStream(seed, "opt"))
            out = optimizer.optimize_table(table, iterations=200)
            return schedule_cost(out, small_params)

        assert run(3) == run(3)

    def test_counters(self, small_params):
        table = greedy_table(small_params)
        optimizer = ScheduleOptimizer(small_params,
                                      rng=RngStream(7, "opt"))
        optimizer.optimize_table(table, iterations=100)
        assert optimizer.proposals == 100
        assert optimizer.improvements >= 0

    def test_zero_iterations_identity_cost(self, small_params):
        table = greedy_table(small_params)
        optimizer = ScheduleOptimizer(small_params,
                                      rng=RngStream(7, "opt"))
        out = optimizer.optimize_table(table, iterations=0)
        assert schedule_cost(out, small_params) == \
            schedule_cost(table, small_params)

    def test_rejects_negative_iterations(self, small_params):
        optimizer = ScheduleOptimizer(small_params)
        with pytest.raises(ValueError):
            optimizer.optimize_table(greedy_table(small_params), -1)

    def test_empty_table_passthrough(self, small_params):
        from repro.protocol.schedule import ScheduleTable
        empty = ScheduleTable(small_params)
        optimizer = ScheduleOptimizer(small_params)
        assert optimizer.optimize_table(empty, 10) is empty


class TestPolicyIntegration:
    def test_policy_uses_optimizer(self, small_params, tiny_packing):
        from repro.core.coefficient import CoEfficientPolicy
        from repro.faults.ber import BitErrorRateModel
        from repro.protocol.cluster import Cluster

        policy = CoEfficientPolicy(
            tiny_packing, BitErrorRateModel(ber_channel_a=0.0),
            optimize_iterations=200,
        )
        sources = tiny_packing.build_sources(RngStream(3, "opt-int"))
        cluster = Cluster(params=small_params, policy=policy,
                          sources=sources)
        cluster.run_for_ms(10.0)
        metrics = cluster.metrics()
        # Still a working schedule: everything produced gets delivered.
        assert metrics.delivered_instances > 0
        assert cluster.trace.verify_no_channel_overlap() == []

    def test_optimized_latency_not_worse(self, small_params,
                                         tiny_packing):
        from repro.core.coefficient import CoEfficientPolicy
        from repro.faults.ber import BitErrorRateModel
        from repro.protocol.cluster import Cluster

        def run(iterations):
            policy = CoEfficientPolicy(
                tiny_packing, BitErrorRateModel(ber_channel_a=0.0),
                optimize_iterations=iterations,
            )
            sources = tiny_packing.build_sources(
                RngStream(3, "opt-compare"))
            cluster = Cluster(params=small_params, policy=policy,
                              sources=sources)
            cluster.run_for_ms(20.0)
            return cluster.metrics().static_latency.mean_ms

        greedy = run(0)
        optimized = run(400)
        assert optimized <= greedy * 1.2  # never substantially worse

"""Unit and cross-validation tests for the analytical schedule validator."""

import pytest

from repro.analysis.validator import validate_schedule
from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.protocol.cluster import Cluster
from repro.protocol.schedule import ChannelStrategy, build_dual_schedule
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream
from repro.sim.trace_io import per_message_statistics


@pytest.fixture
def validated_setup(small_params, tiny_periodic_signals):
    packing = pack_signals(tiny_periodic_signals, small_params)
    table = build_dual_schedule(packing.static_frames(), small_params,
                                ChannelStrategy.DISTRIBUTE)
    return packing, table


class TestValidator:
    def test_all_messages_validated(self, small_params, validated_setup):
        packing, table = validated_setup
        results = validate_schedule(table, packing, small_params)
        assert len(results) == len(packing.periodic_messages())
        assert all(v.scheduled for v in results)

    def test_tiny_workload_meets_deadlines(self, small_params,
                                           validated_setup):
        packing, table = validated_setup
        results = validate_schedule(table, packing, small_params)
        for validation in results:
            assert validation.meets_deadline, (
                f"{validation.message_id}: worst "
                f"{validation.worst_latency_mt} > "
                f"deadline {validation.deadline_mt}"
            )

    def test_unscheduled_message_flagged(self, small_params,
                                         validated_setup):
        packing, __ = validated_setup
        from repro.protocol.schedule import ScheduleTable
        empty = ScheduleTable(small_params)
        results = validate_schedule(empty, packing, small_params)
        assert all(not v.scheduled for v in results)
        assert all(not v.meets_deadline for v in results)

    def test_worst_latency_positive(self, small_params, validated_setup):
        packing, table = validated_setup
        for validation in validate_schedule(table, packing, small_params):
            assert validation.worst_latency_mt > 0


class TestCrossValidation:
    def test_bound_dominates_fault_free_simulation(self, small_params,
                                                   tiny_periodic_signals):
        """Every fault-free simulated latency must stay within the
        validator's analytical worst case -- the strongest consistency
        check between the two halves of the library."""
        packing = pack_signals(tiny_periodic_signals, small_params)
        policy = CoEfficientPolicy(
            packing, BitErrorRateModel(ber_channel_a=0.0),
            reliability_goal=0.9,  # no copies: pure primary schedule
        )
        cluster = Cluster(
            params=small_params, policy=policy,
            sources=packing.build_sources(RngStream(2, "xval")))
        cluster.run_for_ms(40.0)

        bounds = {
            v.message_id: v.worst_latency_mt
            for v in validate_schedule(policy.table, packing, small_params)
        }
        for stats in per_message_statistics(cluster.trace):
            if stats.message_id not in bounds:
                continue  # aperiodic
            assert stats.max_latency_mt <= bounds[stats.message_id], (
                f"{stats.message_id}: simulated {stats.max_latency_mt} "
                f"exceeds analytical bound {bounds[stats.message_id]}"
            )

    def test_bbw_case_study_validates(self):
        """The derived BBW cluster's schedule keeps most messages within
        deadline analytically (the late-phase sub-cycle groups are the
        known structural exceptions)."""
        from repro.experiments.figures import case_study_params
        from repro.workloads.bbw import bbw_signals

        params = case_study_params("bbw", minislots=50)
        packing = pack_signals(bbw_signals(), params)
        table = build_dual_schedule(packing.static_frames(), params,
                                    ChannelStrategy.DISTRIBUTE)
        results = validate_schedule(table, packing, params)
        assert all(v.scheduled for v in results)
        meeting = sum(1 for v in results if v.meets_deadline)
        assert meeting / len(results) > 0.5

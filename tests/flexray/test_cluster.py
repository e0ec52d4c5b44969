"""Integration-style unit tests for the FlexRay cluster."""

import pytest

from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.protocol.cluster import Cluster
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream


def make_cluster(params, packing, **kwargs):
    policy = CoEfficientPolicy(
        packing, BitErrorRateModel(ber_channel_a=0.0),
        reliability_goal=0.9999,
    )
    sources = packing.build_sources(RngStream(5, "cluster-test"),
                                    instance_limit=kwargs.pop("limit", None))
    return Cluster(params=params, policy=policy, sources=sources, **kwargs)


class TestConstruction:
    def test_initial_clock(self, small_params, tiny_packing):
        cluster = make_cluster(small_params, tiny_packing)
        assert cluster.cycle == 0
        assert cluster.now_mt == 0


class TestExecution:
    def test_run_cycles_advances_clock(self, small_params, tiny_packing):
        cluster = make_cluster(small_params, tiny_packing)
        cluster.run_cycles(5)
        assert cluster.cycle == 5
        assert cluster.now_mt == 5 * small_params.gd_cycle_mt

    def test_run_cycles_rejects_nonpositive(self, small_params, tiny_packing):
        with pytest.raises(ValueError):
            make_cluster(small_params, tiny_packing).run_cycles(0)

    def test_run_for_ms(self, small_params, tiny_packing):
        cluster = make_cluster(small_params, tiny_packing)
        cycles = cluster.run_for_ms(2.0)
        assert cycles == 3  # ceil(2.0 / 0.8)

    def test_periodic_traffic_transmitted(self, small_params, tiny_packing):
        cluster = make_cluster(small_params, tiny_packing)
        cluster.run_for_ms(8.0)
        assert cluster.trace.instance_count() > 0
        assert cluster.trace.delivered_count() > 0

    def test_trace_physically_consistent(self, small_params, tiny_packing):
        cluster = make_cluster(small_params, tiny_packing)
        cluster.run_for_ms(10.0)
        assert cluster.trace.verify_no_channel_overlap() == []

    def test_run_until_complete_delivers_everything(self, small_params,
                                                    tiny_workload):
        packing = pack_signals(tiny_workload, small_params)
        cluster = make_cluster(small_params, packing, limit=3)
        cycles = cluster.run_until_complete(max_cycles=1000)
        assert cycles < 1000
        produced = cluster.trace.instance_count()
        assert produced == cluster.trace.delivered_count()
        assert cluster.policy.pending_work() == 0

    def test_metrics_computed(self, small_params, tiny_packing):
        cluster = make_cluster(small_params, tiny_packing)
        cluster.run_for_ms(8.0)
        metrics = cluster.metrics()
        assert metrics.produced_instances > 0
        assert 0.0 <= metrics.bandwidth_utilization <= 1.0
        assert metrics.deadline_miss_ratio <= 1.0

    def test_fault_oracle_consulted(self, small_params, tiny_packing):
        calls = []

        def oracle(channel, bits, time_mt):
            calls.append((channel, bits, time_mt))
            return False

        policy = CoEfficientPolicy(
            tiny_packing, BitErrorRateModel(ber_channel_a=0.0))
        sources = tiny_packing.build_sources(RngStream(5, "oracle-test"))
        cluster = Cluster(params=small_params, policy=policy,
                          sources=sources, corrupts=oracle)
        cluster.run_for_ms(5.0)
        assert len(calls) == len(cluster.trace)

"""Reliability-focused integration tests.

Verifies the reliability machinery end to end: the planned budgets
actually achieve the goal empirically (measured over an aggressive fault
environment so failures are observable), and robustness against fault
models that violate the planner's independence assumption.
"""

import pytest

from repro.experiments.runner import run_experiment
from repro.faults.analysis import set_success_probability
from repro.faults.ber import BitErrorRateModel
from repro.faults.injector import BurstFaultInjector
from repro.protocol.cluster import Cluster
from repro.flexray.params import paper_dynamic_preset
from repro.protocol.signal import Signal, SignalSet
from repro.packing.frame_packing import pack_signals
from repro.experiments.runner import make_policy
from repro.sim.rng import RngStream


@pytest.fixture
def lossy_workload():
    """A small periodic workload on a lossy medium."""
    return SignalSet([
        Signal(name=f"m{i}", ecu=i % 3, period_ms=2.0, offset_ms=0.1 * i,
               deadline_ms=2.0, size_bits=180)
        for i in range(6)
    ], name="lossy")


class TestEmpiricalReliability:
    def test_plan_meets_goal_against_aggressive_ber(self, lossy_workload):
        """Delivered fraction must meet rho with planned retransmission.

        BER 2e-5 on 244-bit frames -> per-attempt failure ~5e-3; a goal
        of 0.999 per 100 ms forces budgets >= 1 and the empirical
        delivery rate must clear the goal comfortably.
        """
        params = paper_dynamic_preset(50)
        result = run_experiment(
            params=params, scheduler="coefficient",
            periodic=lossy_workload, ber=2e-5,
            seed=3, duration_ms=2000.0,
            reliability_goal=0.999, time_unit_ms=100.0,
        )
        metrics = result.metrics
        plan = result.cluster.policy.plan
        assert plan.feasible
        assert any(k >= 1 for k in plan.budgets.values())
        delivered_fraction = (metrics.delivered_instances
                              / metrics.produced_instances)
        assert delivered_fraction >= 0.999

    def test_no_retransmission_loses_more(self, lossy_workload):
        params = paper_dynamic_preset(50)
        with_plan = run_experiment(
            params=params, scheduler="coefficient",
            periodic=lossy_workload, ber=2e-4, seed=3,
            duration_ms=1000.0, reliability_goal=0.999,
            time_unit_ms=100.0,
        )
        def lost(result):
            metrics = result.metrics
            return metrics.produced_instances - metrics.delivered_instances

        # static-only has channel-B duplicates, so compare against the
        # truly bare dynamic-priority baseline as well.
        bare = run_experiment(
            params=params.with_channels(1), scheduler="dynamic-priority",
            periodic=lossy_workload, ber=2e-4, seed=3,
            duration_ms=1000.0,
        )
        assert lost(with_plan) <= lost(bare)

    def test_theorem1_consistency_with_plan(self, lossy_workload):
        """The planner's achieved probability matches Theorem 1 exactly."""
        params = paper_dynamic_preset(50)
        result = run_experiment(
            params=params, scheduler="coefficient",
            periodic=lossy_workload, ber=2e-5, seed=3,
            duration_ms=100.0, reliability_goal=0.999,
            time_unit_ms=100.0,
        )
        policy = result.cluster.policy
        plan = policy.plan
        failure = {}
        instances = {}
        for message in policy._packing.messages:
            bits = max(c.payload_bits for c in message.chunks) + 64
            failure[message.message_id] = \
                BitErrorRateModel(2e-5).failure_probability("A", bits)
            instances[message.message_id] = 100.0 / message.period_ms
        recomputed = set_success_probability(failure, plan.budgets,
                                             instances)
        assert recomputed == pytest.approx(plan.achieved_probability,
                                           rel=1e-9)


class TestBurstRobustness:
    def test_survives_correlated_bursts(self, lossy_workload):
        """Bursty faults violate independence; the system must degrade
        gracefully (still deliver the vast majority), not collapse."""
        params = paper_dynamic_preset(50)
        packing = pack_signals(lossy_workload, params)
        rng = RngStream(17, "burst-robustness")
        injector = BurstFaultInjector(
            BitErrorRateModel(ber_channel_a=1e-7), rng,
            burst_ber=5e-4, burst_rate_per_ms=0.05, burst_length_mt=2000,
        )
        policy = make_policy("coefficient", packing,
                             BitErrorRateModel(ber_channel_a=1e-7),
                             reliability_goal=0.999, time_unit_ms=100.0)
        sources = packing.build_sources(rng)
        cluster = Cluster(params=params, policy=policy,
                          sources=sources, corrupts=injector)
        cluster.run_for_ms(1000.0)
        metrics = cluster.metrics()
        assert injector.injected > 0  # the bursts really happened
        delivered_fraction = (metrics.delivered_instances
                              / metrics.produced_instances)
        assert delivered_fraction > 0.95

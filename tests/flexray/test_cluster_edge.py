"""Edge-case tests for the cluster's run loops and arrival handling."""


from repro.core.coefficient import CoEfficientPolicy
from repro.faults.ber import BitErrorRateModel
from repro.protocol.cluster import Cluster
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream


def make_cluster(params, packing, limit=None, corrupts=None):
    policy = CoEfficientPolicy(
        packing, BitErrorRateModel(ber_channel_a=0.0),
        reliability_goal=0.99,
    )
    sources = packing.build_sources(RngStream(6, "edge"),
                                    instance_limit=limit)
    kwargs = {"corrupts": corrupts} if corrupts else {}
    return Cluster(params=params, policy=policy, sources=sources, **kwargs)


class TestCompletionLoop:
    def test_completes_and_stops(self, small_params, tiny_workload):
        packing = pack_signals(tiny_workload, small_params)
        cluster = make_cluster(small_params, packing, limit=2)
        cycles = cluster.run_until_complete(max_cycles=500)
        # Arrivals span ~9 ms = ~12 cycles; completion within a small
        # multiple of that (drain + settle).
        assert cycles < 60
        assert cluster.trace.delivered_count() == \
            cluster.trace.instance_count()

    def test_stall_detected_when_undeliverable(self, small_params,
                                               tiny_workload):
        """Everything corrupted: the loop must stop on stagnation, not
        spin to max_cycles."""
        packing = pack_signals(tiny_workload, small_params)
        cluster = make_cluster(small_params, packing, limit=1,
                               corrupts=lambda c, b, t: True)
        cycles = cluster.run_until_complete(max_cycles=5000)
        assert cycles < 5000
        assert cluster.trace.delivered_count() == 0

    def test_max_cycles_cap_respected(self, small_params, tiny_workload):
        packing = pack_signals(tiny_workload, small_params)
        cluster = make_cluster(small_params, packing, limit=50)
        cycles = cluster.run_until_complete(max_cycles=3)
        assert cycles == 3

    def test_empty_sources_stop_immediately(self, small_params,
                                            tiny_packing):
        policy = CoEfficientPolicy(
            tiny_packing, BitErrorRateModel(ber_channel_a=0.0))
        cluster = Cluster(params=small_params, policy=policy,
                          sources=[])
        cycles = cluster.run_until_complete(max_cycles=100)
        assert cycles <= 12  # settle window only


class TestArrivalTiming:
    def test_mid_cycle_arrival_same_cycle_delivery(self, small_params):
        """An instance released mid-cycle rides a later slot of the SAME
        cycle when its slot is phase-aligned after the release."""
        from repro.protocol.signal import Signal, SignalSet
        signals = SignalSet([Signal(name="mid", ecu=0, period_ms=0.8,
                                    offset_ms=0.12, deadline_ms=0.8,
                                    size_bits=64)])
        packing = pack_signals(signals, small_params)
        cluster = make_cluster(small_params, packing, limit=1)
        cluster.run_until_complete(max_cycles=10)
        delivery = cluster.trace.delivery_time("mid", 0)
        assert delivery is not None
        assert delivery < small_params.gd_cycle_mt  # same cycle

    def test_arrival_in_nit_waits_for_next_cycle(self, small_params):
        from repro.protocol.signal import Signal, SignalSet
        # Release at 0.75 ms: inside the NIT (static 0.4 + dynamic 0.32
        # = 0.72 ms; NIT is the final 0.08 ms).
        signals = SignalSet([Signal(name="late", ecu=0, period_ms=0.8,
                                    offset_ms=0.75, deadline_ms=0.8,
                                    size_bits=64)])
        packing = pack_signals(signals, small_params)
        cluster = make_cluster(small_params, packing, limit=1)
        cluster.run_until_complete(max_cycles=10)
        delivery = cluster.trace.delivery_time("late", 0)
        assert delivery is not None
        assert delivery > small_params.gd_cycle_mt  # next cycle


class TestMetricsWindow:
    def test_default_horizon_is_elapsed_time(self, small_params,
                                             tiny_workload):
        packing = pack_signals(tiny_workload, small_params)
        cluster = make_cluster(small_params, packing)
        cluster.run_cycles(5)
        metrics = cluster.metrics()
        assert metrics.horizon_mt == 5 * small_params.gd_cycle_mt

    def test_explicit_horizon(self, small_params, tiny_workload):
        packing = pack_signals(tiny_workload, small_params)
        cluster = make_cluster(small_params, packing)
        cluster.run_cycles(5)
        metrics = cluster.metrics(horizon_mt=10_000)
        assert metrics.horizon_mt == 10_000

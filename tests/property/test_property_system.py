"""Property-based tests at the whole-system level.

Slower than the algebraic properties, so example counts are modest; the
invariants checked here are the ones that make the simulation's results
trustworthy at all: physical trace consistency and metric sanity for
arbitrary workloads, schedulers and fault rates.
"""


from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_experiment
from repro.flexray.params import FlexRayParams
from repro.protocol.signal import Signal, SignalSet


@st.composite
def workloads(draw):
    """A small random mixed workload on a fixed small cluster."""
    n_periodic = draw(st.integers(min_value=1, max_value=5))
    n_aperiodic = draw(st.integers(min_value=0, max_value=3))
    signals = []
    for i in range(n_periodic):
        period = draw(st.sampled_from([0.8, 1.6, 3.2]))
        signals.append(Signal(
            name=f"p{i}", ecu=i % 3, period_ms=period,
            offset_ms=round(draw(st.floats(min_value=0.0, max_value=0.5)), 2),
            deadline_ms=period,
            size_bits=draw(st.integers(min_value=32, max_value=216)),
        ))
    for i in range(n_aperiodic):
        signals.append(Signal(
            name=f"a{i}", ecu=i % 3, period_ms=4.0,
            offset_ms=round(draw(st.floats(min_value=0.0, max_value=2.0)), 2),
            deadline_ms=4.0,
            size_bits=draw(st.integers(min_value=32, max_value=500)),
            priority=i + 1, aperiodic=True,
        ))
    return SignalSet(signals, name="random")


SMALL = FlexRayParams(
    gd_cycle_mt=800, gd_static_slot_mt=40, g_number_of_static_slots=10,
    gd_minislot_mt=8, g_number_of_minislots=40,
)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    workload=workloads(),
    scheduler=st.sampled_from(["coefficient", "fspec", "static-only",
                               "dynamic-priority"]),
    ber_exponent=st.sampled_from([0, 5, 7]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_any_run_is_physically_consistent(workload, scheduler,
                                          ber_exponent, seed):
    ber = 0.0 if ber_exponent == 0 else 10.0 ** (-ber_exponent)
    periodic = workload.periodic()
    aperiodic = workload.aperiodic()
    result = run_experiment(
        params=SMALL,
        scheduler=scheduler,
        periodic=periodic if len(periodic) else None,
        aperiodic=aperiodic if len(aperiodic) else None,
        ber=ber, seed=seed, duration_ms=20.0,
    )
    trace = result.cluster.trace
    # 1. No two transmissions overlap on a channel.
    assert trace.verify_no_channel_overlap() == []
    metrics = result.metrics
    # 2. Metrics are well-formed.
    assert 0.0 <= metrics.bandwidth_utilization <= 1.0
    assert metrics.bandwidth_utilization <= metrics.gross_utilization + 1e-12
    assert 0.0 <= metrics.deadline_miss_ratio <= 1.0
    assert metrics.delivered_instances <= metrics.produced_instances
    # 3. Causality: nothing transmits before it is generated.
    for record in trace:
        assert record.start >= record.generation_time
    # 4. Conservation: corrupted + delivered <= total attempts.
    delivered_records = sum(
        1 for r in trace if r.outcome.value == "delivered"
    )
    assert delivered_records + metrics.corrupted_attempts == \
        metrics.total_attempts


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workload=workloads(), seed=st.integers(min_value=0, max_value=50))
def test_fault_free_coefficient_delivers_all_feasible(workload, seed):
    """On a perfect medium with light load, every instance whose message
    physically fits is delivered (completion mode)."""
    periodic = workload.periodic()
    assume(len(periodic) >= 1)
    result = run_experiment(
        params=SMALL, scheduler="coefficient",
        periodic=periodic,
        ber=0.0, seed=seed, duration_ms=None, instance_limit=3,
        drop_expired_dynamic=False,
    )
    metrics = result.metrics
    assert metrics.delivered_instances == metrics.produced_instances


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000))
def test_determinism_across_repeats(seed):
    """Same seed -> byte-identical metrics, for any seed."""
    workload = SignalSet([
        Signal(name="p0", ecu=0, period_ms=0.8, offset_ms=0.1,
               deadline_ms=0.8, size_bits=128),
        Signal(name="a0", ecu=1, period_ms=4.0, offset_ms=0.5,
               deadline_ms=4.0, size_bits=200, priority=1, aperiodic=True),
    ])
    def run():
        return run_experiment(
            params=SMALL, scheduler="coefficient",
            periodic=workload.periodic(), aperiodic=workload.aperiodic(),
            ber=1e-4, seed=seed, duration_ms=15.0,
        ).metrics

    assert run() == run()

"""Property tests: observability never perturbs the simulation.

The observability contract (``src/repro/obs``) promises that attaching
counters, hook subscribers, or swapping the context entirely is
*observation-only*: the trace, the cycle count and the deterministic
counter/gauge snapshot are pure functions of the seed.  These
properties drive a small CoEfficient scenario at a high bit error rate
(so retransmission, slack admission and fault draws all run) through
paired ``run_experiment`` calls on both engine modes and require
bit-identical results.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_experiment
from repro.flexray.params import FlexRayParams
from repro.obs.hooks import HookRecorder
from repro.obs.observability import NULL_OBS, Observability
from repro.protocol.signal import Signal, SignalSet
from repro.sim.engine import EngineMode
from repro.sim.trace import trace_digest

SMALL = FlexRayParams(
    gd_cycle_mt=800, gd_static_slot_mt=40, g_number_of_static_slots=10,
    gd_minislot_mt=8, g_number_of_minislots=40,
)

PERIODIC = SignalSet([
    Signal(name="p1", ecu=0, period_ms=0.8, offset_ms=0.1,
           deadline_ms=0.8, size_bits=128),
    Signal(name="p2", ecu=0, period_ms=1.6, offset_ms=0.2,
           deadline_ms=1.6, size_bits=200),
    Signal(name="p3", ecu=1, period_ms=3.2, offset_ms=0.3,
           deadline_ms=3.2, size_bits=256),
], name="obs-periodic")

APERIODIC = SignalSet([
    Signal(name="a1", ecu=2, period_ms=4.0, offset_ms=0.5,
           deadline_ms=4.0, size_bits=160, priority=1, aperiodic=True),
    Signal(name="a2", ecu=3, period_ms=8.0, offset_ms=1.0,
           deadline_ms=8.0, size_bits=240, priority=2, aperiodic=True),
], name="obs-aperiodic")

#: The event catalogue of ``docs/observability.md``.
HOOK_NAMES = (
    "engine.cycle",
    "slack.promise",
    "policy.slack_steal",
    "policy.retx_admission",
    "retransmission.plan",
    "metrics.computed",
    "experiment.finished",
    "campaign.finished",
)

seeds = st.integers(min_value=0, max_value=10_000)
bers = st.sampled_from([1e-4, 1e-3])
modes = st.sampled_from(list(EngineMode))

property_settings = settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run(seed, ber, mode, obs):
    """One short CoEfficient run; returns what the comparison needs."""
    result = run_experiment(
        params=SMALL, scheduler="coefficient",
        periodic=PERIODIC, aperiodic=APERIODIC,
        ber=ber, seed=seed, duration_ms=16.0,
        obs=obs, engine_mode=mode,
    )
    return {
        "digest": trace_digest(result.cluster.trace),
        "cycles": result.cycles_run,
        "counters": result.counters,
    }


@given(seed=seeds, ber=bers, mode=modes)
@property_settings
def test_observed_run_replays_identically_to_unobserved(seed, ber, mode):
    bare = _run(seed, ber, mode, NULL_OBS)
    observed = _run(seed, ber, mode, Observability())
    assert bare == observed


@given(seed=seeds, ber=bers, mode=modes)
@property_settings
def test_two_observed_runs_agree_on_deterministic_snapshot(seed, ber, mode):
    obs_a, obs_b = Observability(), Observability()
    run_a = _run(seed, ber, mode, obs_a)
    run_b = _run(seed, ber, mode, obs_b)
    assert run_a == run_b
    # Counters and gauges are replay-comparable; wall-clock profile
    # sections (the collector's passes among them) are deliberately
    # excluded from this snapshot.
    snap_a = obs_a.deterministic_snapshot()
    assert snap_a == obs_b.deterministic_snapshot()
    assert set(snap_a) == {"counters", "gauges"}
    assert snap_a["counters"]["engine.cycles"] == run_a["cycles"]


@given(seed=seeds, ber=bers, mode=modes)
@property_settings
def test_hook_subscribers_do_not_perturb_counters_or_dispatch(
        seed, ber, mode):
    obs_plain, obs_hooked = Observability(), Observability()
    recorder = HookRecorder()
    for name in HOOK_NAMES:
        obs_hooked.hooks.subscribe(name, recorder)
    plain = _run(seed, ber, mode, obs_plain)
    hooked = _run(seed, ber, mode, obs_hooked)
    assert plain == hooked
    assert (obs_plain.deterministic_snapshot()
            == obs_hooked.deterministic_snapshot())
    # The recorder saw one cycle event per simulated cycle, in order.
    cycles = [fields["cycle"] for fields in recorder.of("engine.cycle")]
    assert cycles == list(range(hooked["cycles"]))
    assert recorder.of("experiment.finished")


@given(seed=seeds, ber=bers, mode=modes)
@property_settings
def test_counters_are_pure_functions_of_the_schedule(seed, ber, mode):
    # Running the same seed through a reused Observability twice
    # doubles every counter: no hidden cross-run state leaks in.
    obs = Observability()
    first = _run(seed, ber, mode, obs)
    once = dict(obs.deterministic_snapshot()["counters"])
    second = _run(seed, ber, mode, obs)
    assert first == second
    twice = obs.deterministic_snapshot()["counters"]
    assert set(twice) == set(once)
    for name, value in once.items():
        assert twice[name] == 2 * value

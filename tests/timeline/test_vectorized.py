"""Unit tests for the vectorized cycle-batch engine.

The broad byte-equivalence guarantees live in the differential suites
(``tests/sim/test_trace_equivalence.py``, ``tests/sim/test_engine_fuzz.py``).
This module pins the *engine mechanics* instead: which path a workload
settles through (owned-step batch vs. dense batch with mid-segment
arrivals vs. scalar fallback), that each segment settles once, that a
held dynamic retransmission leaves the promise ledger alone, and that
the ``engine.*`` counters advertise it correctly.
"""

from unittest import mock

import pytest

from repro.core.coefficient import CoEfficientPolicy
from repro.experiments.figures import case_study_params, \
    paper_dynamic_preset
from repro.experiments.runner import make_policy, run_experiment
from repro.faults.ber import BitErrorRateModel
from repro.faults.injector import TransientFaultInjector
from repro.flexray.params import FlexRayParams
from repro.packing.frame_packing import pack_signals
from repro.protocol.cluster import Cluster
from repro.protocol.frame import FrameKind
from repro.protocol.signal import Signal, SignalSet
from repro.obs import Observability
from repro.sim.rng import RngStream
from repro.sim.trace import TraceRecorder, canonical_trace_bytes, trace_digest
from repro.workloads.bbw import bbw_signals
from repro.workloads.sae import sae_aperiodic_signals


def cycle_aligned_signals(params, count=6, size_bits=96):
    """Messages released exactly at cycle starts (never mid-segment)."""
    period_ms = 2 * params.cycle_ms
    return SignalSet(
        [Signal(name=f"al-{i}", ecu=i % 4, period_ms=period_ms,
                offset_ms=0.0, deadline_ms=period_ms, size_bits=size_bits)
         for i in range(count)],
        name="cycle-aligned",
    )


def mid_cycle_signals(params, count=4):
    """Messages whose releases land inside the static segment."""
    period_ms = 2 * params.cycle_ms
    offset_ms = params.cycle_ms * 0.1
    return SignalSet(
        [Signal(name=f"mid-{i}", ecu=i % 4, period_ms=period_ms,
                offset_ms=offset_ms * (i + 1) / count,
                deadline_ms=period_ms, size_bits=96)
         for i in range(count)],
        name="mid-cycle",
    )


def run_vectorized(obs=None, **kwargs):
    return run_experiment(engine_mode="vectorized",
                          obs=obs if obs is not None else Observability(),
                          **kwargs)


def engine_counters(obs):
    return {k: v
            for k, v in obs.deterministic_snapshot()["counters"].items()
            if k.startswith("engine.")}


class TestBatchPaths:
    def test_owned_path_batches_without_fallback(self, small_params):
        """Cycle-aligned static traffic settles whole segments as one
        batch each: batches accumulate, no cycle falls back."""
        obs = Observability()
        result = run_vectorized(
            obs=obs, params=small_params, scheduler="static-only",
            periodic=cycle_aligned_signals(small_params),
            ber=1e-4, seed=5, duration_ms=20.0,
        )
        assert result.cluster.vectorized_active
        counters = engine_counters(obs)
        assert counters["engine.vectorized_batches"] >= result.cycles_run
        assert counters.get("engine.scalar_fallback_cycles", 0) == 0

    def test_mid_segment_arrivals_stay_vectorized(self, small_params):
        """Arrivals inside the static segment are delivered within the
        batch instead of forcing a scalar fallback."""
        obs = Observability()
        result = run_vectorized(
            obs=obs, params=small_params, scheduler="coefficient",
            periodic=mid_cycle_signals(small_params),
            aperiodic=sae_aperiodic_signals(count=3, interarrival_ms=5.0,
                                            deadline_ms=12.0),
            ber=1e-4, seed=8, duration_ms=20.0,
        )
        assert result.cluster.vectorized_active
        counters = engine_counters(obs)
        assert counters["engine.vectorized_batches"] > 0
        assert counters.get("engine.scalar_fallback_cycles", 0) == 0

    def test_feedback_policy_falls_back_per_cycle(self, small_params,
                                                  tiny_periodic_signals):
        """Feedback ARQ makes decisions outcome-dependent, so every
        cycle must delegate to the scalar engines -- and say so."""
        obs = Observability()
        result = run_vectorized(
            obs=obs, params=small_params, scheduler="fspec",
            periodic=tiny_periodic_signals,
            ber=1e-4, seed=5, duration_ms=20.0,
            feedback=True,
        )
        assert result.cluster.vectorized_active
        counters = engine_counters(obs)
        assert counters["engine.scalar_fallback_cycles"] == result.cycles_run

    @pytest.mark.parametrize("scheduler", ("static-only", "coefficient"))
    def test_paths_remain_trace_equivalent(self, small_params, scheduler):
        """Both batch paths reproduce the oracle byte for byte (spot
        check; the fuzz suite sweeps this space broadly)."""
        kwargs = dict(
            params=small_params, scheduler=scheduler,
            periodic=mid_cycle_signals(small_params),
            ber=1e-3, seed=11, duration_ms=15.0,
        )
        oracle = run_experiment(engine_mode="interpreter", **kwargs)
        batch = run_experiment(engine_mode="vectorized", **kwargs)
        assert (canonical_trace_bytes(batch.cluster.trace)
                == canonical_trace_bytes(oracle.cluster.trace))
        assert batch.counters == oracle.counters


class TestCounterSurface:
    def test_stepper_instance_mirrors_obs_counters(self, small_params):
        obs = Observability()
        result = run_vectorized(
            obs=obs, params=small_params, scheduler="static-only",
            periodic=cycle_aligned_signals(small_params),
            ber=0.0, seed=2, duration_ms=10.0,
        )
        stepper = result.cluster._stepper
        counters = engine_counters(obs)
        assert stepper.vectorized_batches == \
            counters["engine.vectorized_batches"]
        assert stepper.scalar_fallback_cycles == \
            counters.get("engine.scalar_fallback_cycles", 0)


def count_blocks(**kwargs):
    """Run on the batch engine, noting the size of every trace block."""
    calls = []
    original = TraceRecorder.record_batch

    def counted(self, plan, cycle, segment, lane_names, bits, verdicts):
        calls.append(len(plan))
        original(self, plan, cycle, segment, lane_names, bits, verdicts)

    with mock.patch.object(TraceRecorder, "record_batch", counted):
        result = run_experiment(engine_mode="vectorized", **kwargs)
    return calls, result


class TestSettleOnce:
    def test_bbw_settles_each_segment_once(self):
        """The engine-bbw scenario: mid-segment arrivals run promise
        admission, yet every segment reaches the trace in one batch."""
        calls, result = count_blocks(
            params=case_study_params("bbw"), scheduler="coefficient",
            periodic=bbw_signals(), ber=1e-7, seed=1, duration_ms=None,
            instance_limit=200)
        segments = 2 * result.cycles_run
        assert 0 < len(calls) <= segments
        assert sum(calls) == len(result.cluster.trace)

    def test_dense_trace_settles_each_segment_once(self):
        """The engine-dense scenario: ~20 busy static slots a cycle under
        faults, each static segment one block (the dynamic segment idles)."""
        params = paper_dynamic_preset(100)
        calls, result = count_blocks(
            params=params, scheduler="static-only",
            periodic=cycle_aligned_signals(params, count=40,
                                           size_bits=144),
            ber=1e-3, seed=1, duration_ms=200.0)
        assert 0 < len(calls) <= result.cycles_run
        assert sum(calls) == len(result.cluster.trace)
        assert min(calls) >= 20


def short_dynamic_params():
    """Four static slots and a 4-minislot dynamic segment: a 128-bit
    retransmission fits the reserved slot, a 200-bit one is held."""
    return FlexRayParams(
        gd_macrotick_us=1.0, gd_cycle_mt=400, gd_static_slot_mt=40,
        g_number_of_static_slots=4, gd_minislot_mt=8,
        g_number_of_minislots=4, channel_count=2,
    )


def held_retry_signals(params):
    """Eight unpackable messages that fill every static slot but one
    every other cycle, so promised copies ride the reserved dynamic
    slot: the 200-bit ones are held there, the 128-bit ones sent."""
    cycle_ms = params.cycle_ms
    return SignalSet(
        [Signal(name=f"h{i}", ecu=i,
                period_ms=cycle_ms * (2 if i == 0 else 1), offset_ms=0.0,
                deadline_ms=cycle_ms * (2 if i == 0 else 1),
                size_bits=128 if i % 2 else 200)
         for i in range(8)],
        name="held-retry",
    )


def step_ledger(mode, cycles=40):
    """Run cycle by cycle; record the promise ledger after each cycle
    and, per reserved-slot hand-out, whether it was held and how many
    promises the hand-out consumed."""
    params = short_dynamic_params()
    packing = pack_signals(held_retry_signals(params), params)
    rng = RngStream(3, scope="experiment")
    ber_model = BitErrorRateModel(ber_channel_a=1e-4)
    policy = make_policy("coefficient", packing, ber_model)
    obs = Observability()
    policy.attach_observability(obs)
    cluster = Cluster(params=params, policy=policy,
                      sources=packing.build_sources(rng),
                      corrupts=TransientFaultInjector(ber_model, rng),
                      obs=obs, mode=mode)
    def consumed():
        return obs.registry.counter_value("slack.promise_consumed")

    handouts = []
    original = CoEfficientPolicy.dynamic_frame_for

    def spy(self, channel, slot_id, start_mt, minislots_remaining):
        before = consumed()
        pending = original(self, channel, slot_id, start_mt,
                           minislots_remaining)
        if pending is not None and pending.kind is FrameKind.RETRANSMISSION:
            held = (params.minislots_for_bits(pending.payload_bits)
                    > minislots_remaining)
            handouts.append((held, consumed() - before))
        return pending

    ledger = []
    with mock.patch.object(CoEfficientPolicy, "dynamic_frame_for", spy):
        for __ in range(cycles):
            cluster.run_cycles(1)
            ledger.append((policy.slack_planner.promised, consumed()))
    return cluster, ledger, handouts


class TestHeldRetransmission:
    def test_hold_leaves_the_promise_ledger_alone(self):
        oracle, oracle_ledger, oracle_handouts = step_ledger("interpreter")
        batch, batch_ledger, batch_handouts = step_ledger("vectorized")
        assert trace_digest(batch.trace) == trace_digest(oracle.trace)
        assert batch_ledger == oracle_ledger
        assert batch_handouts == oracle_handouts
        # Both kinds happen: a held retry consumes nothing, a sent one
        # consumes its promise at hand-out, before its outcome.
        assert set(batch_handouts) == {(True, 0), (False, 1)}
        # Every committed retransmission consumed exactly one promise.
        retransmissions = sum(1 for record in batch.trace
                              if record.is_retransmission)
        assert batch_ledger[-1][1] == retransmissions > 0

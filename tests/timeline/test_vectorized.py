"""Unit tests for the vectorized cycle-batch engine.

The broad byte-equivalence guarantees live in the differential suites
(``tests/sim/test_trace_equivalence.py``, ``tests/sim/test_engine_fuzz.py``).
This module pins the *engine mechanics* instead: which path a workload
settles through (whole-segment owned batch vs. arrival-chunked
sub-batches vs. scalar fallback), and that the ``engine.*`` counters
advertise it correctly.
"""

import pytest

from repro.experiments.runner import run_experiment
from repro.protocol.signal import Signal, SignalSet
from repro.obs import Observability
from repro.sim.trace import canonical_trace_bytes
from repro.workloads.sae import sae_aperiodic_signals


def cycle_aligned_signals(params, count=6):
    """Messages released exactly at cycle starts (never mid-segment)."""
    period_ms = 2 * params.cycle_ms
    return SignalSet(
        [Signal(name=f"al-{i}", ecu=i % 4, period_ms=period_ms,
                offset_ms=0.0, deadline_ms=period_ms, size_bits=96)
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
        """Arrivals inside the static segment chunk the batch instead of
        forcing a scalar fallback."""
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

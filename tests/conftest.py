"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.faults.ber import BitErrorRateModel
from repro.flexray.params import FlexRayParams, paper_dynamic_preset
from repro.protocol.signal import Signal, SignalSet
from repro.packing.frame_packing import pack_signals
from repro.sim.rng import RngStream


@pytest.fixture
def rng() -> RngStream:
    """A root RNG stream with a fixed seed."""
    return RngStream(seed=1234, scope="tests")


@pytest.fixture
def small_params() -> FlexRayParams:
    """A small, fast cluster configuration for unit tests.

    10 static slots of 40 MT and 40 minislots in a 0.8 ms cycle.
    """
    return FlexRayParams(
        gd_macrotick_us=1.0,
        gd_cycle_mt=800,
        gd_static_slot_mt=40,
        g_number_of_static_slots=10,
        gd_minislot_mt=8,
        g_number_of_minislots=40,
        channel_count=2,
    )


@pytest.fixture
def paper_params() -> FlexRayParams:
    """The paper's dynamic-study preset at 100 minislots."""
    return paper_dynamic_preset(100)


@pytest.fixture
def tiny_periodic_signals() -> SignalSet:
    """Four small periodic signals that fit the small_params slots."""
    return SignalSet([
        Signal(name="p1", ecu=0, period_ms=0.8, offset_ms=0.1,
               deadline_ms=0.8, size_bits=128),
        Signal(name="p2", ecu=0, period_ms=1.6, offset_ms=0.2,
               deadline_ms=1.6, size_bits=200),
        Signal(name="p3", ecu=1, period_ms=1.6, offset_ms=0.0,
               deadline_ms=1.6, size_bits=96),
        Signal(name="p4", ecu=1, period_ms=3.2, offset_ms=0.3,
               deadline_ms=3.2, size_bits=256),
    ], name="tiny-periodic")


@pytest.fixture
def tiny_aperiodic_signals() -> SignalSet:
    """Two small event-triggered signals."""
    return SignalSet([
        Signal(name="a1", ecu=2, period_ms=4.0, offset_ms=0.5,
               deadline_ms=4.0, size_bits=160, priority=1, aperiodic=True),
        Signal(name="a2", ecu=3, period_ms=8.0, offset_ms=1.0,
               deadline_ms=8.0, size_bits=240, priority=2, aperiodic=True),
    ], name="tiny-aperiodic")


@pytest.fixture
def tiny_workload(tiny_periodic_signals, tiny_aperiodic_signals) -> SignalSet:
    """Periodic + aperiodic combined."""
    return tiny_periodic_signals.merged_with(tiny_aperiodic_signals)


@pytest.fixture
def tiny_packing(tiny_workload, small_params):
    """The tiny workload packed for the small cluster."""
    return pack_signals(tiny_workload, small_params)


@pytest.fixture
def fault_free() -> BitErrorRateModel:
    """A perfect medium."""
    return BitErrorRateModel(ber_channel_a=0.0)


@pytest.fixture
def noisy_model() -> BitErrorRateModel:
    """An aggressively lossy medium (for fast fault-path coverage)."""
    return BitErrorRateModel(ber_channel_a=1e-4)

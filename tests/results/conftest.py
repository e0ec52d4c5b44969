"""Shared fixtures for the results-subsystem tests.

One real (tiny) campaign is simulated once per session and reused by
the store, web, and durability tests -- ingestion is what's under
test, not the simulator.
"""

import pytest

from repro.experiments.campaign import run_campaign
from repro.flexray.params import FlexRayParams
from repro.protocol.signal import Signal, SignalSet


@pytest.fixture(scope="session")
def store_params() -> FlexRayParams:
    return FlexRayParams(
        gd_macrotick_us=1.0,
        gd_cycle_mt=800,
        gd_static_slot_mt=40,
        g_number_of_static_slots=10,
        gd_minislot_mt=8,
        g_number_of_minislots=40,
        channel_count=2,
    )


@pytest.fixture(scope="session")
def experiment_kwargs(store_params) -> dict:
    periodic = SignalSet([
        Signal(name="p1", ecu=0, period_ms=0.8, offset_ms=0.1,
               deadline_ms=0.8, size_bits=128),
        Signal(name="p2", ecu=1, period_ms=1.6, offset_ms=0.0,
               deadline_ms=1.6, size_bits=96),
    ], name="store-periodic")
    aperiodic = SignalSet([
        Signal(name="a1", ecu=2, period_ms=4.0, offset_ms=0.5,
               deadline_ms=4.0, size_bits=160, priority=1,
               aperiodic=True),
    ], name="store-aperiodic")
    return dict(params=store_params, periodic=periodic,
                aperiodic=aperiodic, ber=1e-4, duration_ms=20.0)


@pytest.fixture(scope="session")
def tiny_campaign(experiment_kwargs):
    return run_campaign("coefficient", seeds=[1, 2], **experiment_kwargs)


@pytest.fixture(scope="session")
def interpreter_kwargs(experiment_kwargs) -> dict:
    return dict(experiment_kwargs, engine_mode="interpreter")


@pytest.fixture(scope="session")
def tiny_campaign_interpreter(interpreter_kwargs):
    return run_campaign("coefficient", seeds=[1, 2], **interpreter_kwargs)

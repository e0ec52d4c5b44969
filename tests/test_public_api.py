"""Public-API contract tests.

Every name a package advertises in ``__all__`` must exist, be importable
from the package, and carry a docstring -- the contract downstream users
rely on.  Catches export drift (a renamed symbol leaving a stale
``__all__`` entry) that unit tests of the modules themselves never see.
"""

import importlib
import inspect

import pytest

_PACKAGES = [
    "repro",
    "repro.sim",
    "repro.flexray",
    "repro.faults",
    "repro.packing",
    "repro.analysis",
    "repro.core",
    "repro.baselines",
    "repro.workloads",
    "repro.experiments",
    "repro.protocol",
    "repro.ttethernet",
    "repro.timeline",
    "repro.results",
    "repro.service",
    "repro.distrib",
    "repro.obs",
    "repro.verify",
    "repro.check",
]


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_all_exports_exist(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} has no __all__"
    for name in package.__all__:
        assert hasattr(package, name), (
            f"{package_name}.__all__ lists {name!r} but it is missing"
        )


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_exports_documented(package_name):
    package = importlib.import_module(package_name)
    undocumented = []
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, (
        f"{package_name}: exports without docstrings: {undocumented}"
    )


@pytest.mark.parametrize("package_name", _PACKAGES)
def test_package_docstring(package_name):
    package = importlib.import_module(package_name)
    assert (package.__doc__ or "").strip(), (
        f"{package_name} has no package docstring"
    )


def test_top_level_quickstart_names():
    """The README quickstart's imports must keep working."""
    import repro

    for name in ("run_experiment", "paper_dynamic_preset",
                 "paper_static_preset", "CoEfficientPolicy",
                 "Cluster", "Signal", "SignalSet",
                 "plan_retransmissions", "reliability_goal_for"):
        assert hasattr(repro, name), name


def test_scheduler_registry_matches_policies():
    from repro.experiments.runner import SCHEDULERS, make_policy
    from repro.faults.ber import BitErrorRateModel
    from repro.packing.frame_packing import pack_signals
    from repro.flexray.params import FlexRayParams
    from repro.protocol.signal import Signal, SignalSet

    params = FlexRayParams(
        gd_cycle_mt=800, gd_static_slot_mt=40,
        g_number_of_static_slots=10, gd_minislot_mt=8,
        g_number_of_minislots=40,
    )
    packing = pack_signals(SignalSet([
        Signal(name="s", ecu=0, period_ms=0.8, offset_ms=0.0,
               deadline_ms=0.8, size_bits=64),
    ]), params)
    names = set()
    for scheduler in SCHEDULERS:
        policy = make_policy(scheduler, packing,
                             BitErrorRateModel(ber_channel_a=0.0))
        names.add(policy.name)
    assert len(names) == len(SCHEDULERS)  # distinct display names

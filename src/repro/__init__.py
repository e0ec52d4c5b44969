"""CoEfficient: cooperative and efficient real-time scheduling for
time-triggered automotive communications.

A from-scratch reproduction of Hua, Rao, Liu & Feng (ICDCS 2014): a
cycle-accurate cluster simulator for time-triggered rounds (dual
channels, TDMA static segment, minislot-arbitrated dynamic segment), a
BER-based transient-fault model, the CoEfficient scheduler (cooperative
dual-channel scheduling, selective slack stealing, differentiated
retransmission against an IEC 61508 reliability goal), and the FSPEC /
static-only / dynamic-priority baselines it is evaluated against.

The scheduling core (:mod:`repro.protocol`) is protocol-neutral;
concrete protocols plug in as backends -- FlexRay
(:mod:`repro.flexray`, the paper's platform) and time-triggered
Ethernet (:mod:`repro.ttethernet`) -- resolved by name through
:func:`repro.protocol.get_backend`.

Quickstart::

    from repro import run_experiment, paper_dynamic_preset
    from repro.workloads import synthetic_signals, sae_aperiodic_signals

    result = run_experiment(
        params=paper_dynamic_preset(minislots=100),
        scheduler="coefficient",
        periodic=synthetic_signals(20, max_size_bits=216),
        aperiodic=sae_aperiodic_signals(),
        ber=1e-7,
        duration_ms=500.0,
    )
    print(result.row())
"""

from typing import Any

from repro.core.coefficient import CoEfficientPolicy
from repro.core.retransmission import plan_retransmissions
from repro.experiments.runner import ExperimentResult, make_policy, run_experiment
from repro.faults.ber import BitErrorRateModel, frame_failure_probability
from repro.faults.iec61508 import SafetyIntegrityLevel, reliability_goal_for
from repro.packing.frame_packing import derive_params_for, pack_signals
from repro.protocol.backend import available_backends, get_backend
from repro.protocol.cluster import Cluster
from repro.protocol.geometry import SegmentGeometry
from repro.protocol.signal import Signal, SignalSet

__version__ = "1.1.0"

__all__ = [
    "BitErrorRateModel",
    "Cluster",
    "CoEfficientPolicy",
    "ExperimentResult",
    "FlexRayParams",
    "SafetyIntegrityLevel",
    "SegmentGeometry",
    "Signal",
    "SignalSet",
    "__version__",
    "available_backends",
    "derive_params_for",
    "frame_failure_probability",
    "get_backend",
    "make_policy",
    "pack_signals",
    "paper_dynamic_preset",
    "paper_static_preset",
    "plan_retransmissions",
    "reliability_goal_for",
    "run_experiment",
]

#: FlexRay names the pre-refactor package exported at top level; kept
#: importable, but resolved lazily (PEP 562) so that ``import repro``
#: does not statically import the backend package.
_FLEXRAY_EXPORTS = {
    "FlexRayParams": ("repro.flexray.params", "FlexRayParams"),
    "paper_dynamic_preset": ("repro.flexray.params", "paper_dynamic_preset"),
    "paper_static_preset": ("repro.flexray.params", "paper_static_preset"),
}


def __getattr__(name: str) -> Any:
    try:
        module_path, attr = _FLEXRAY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_path), attr)

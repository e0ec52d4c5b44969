"""Backend registry: named protocol implementations behind one interface.

A *backend* packages a concrete protocol (FlexRay, time-triggered
Ethernet, ...) behind the neutral :class:`ProtocolBackend` interface:
its geometry subclass, its presets, and its scenario/case-study
parameter derivations.  The CLI's ``--backend`` flag, the workload
generator and the campaign planner all resolve backends through
:func:`get_backend`, so no core module ever imports a backend package
by name.

Registration is by *module path string*, resolved lazily with
:mod:`importlib` -- deliberately not an ``import`` statement, so the
core's import hygiene (no static imports of backend packages outside
the backends themselves, enforced by ``tests/protocol/test_import_lint``)
holds by construction.
"""

from __future__ import annotations

import abc
import importlib
from typing import ClassVar, Dict, Optional, Tuple

from repro.protocol.geometry import SegmentGeometry

__all__ = [
    "ProtocolBackend",
    "available_backends",
    "get_backend",
    "workload_minislots",
]

#: Workloads that run on their own derived case-study cluster.
CASE_STUDIES = ("bbw", "acc")


def workload_minislots(workload: str, minislots: Optional[int] = None) -> int:
    """The one ``--minislots`` default rule of every command.

    An explicit count wins; otherwise the case studies get the 50
    minislots their 4 ms case-study cycle has room for, and every other
    workload the 100-minislot dynamic-study preset.
    """
    if minislots is not None:
        return minislots
    return 50 if workload in CASE_STUDIES else 100


class ProtocolBackend(abc.ABC):
    """One protocol implementation: geometry factory + parameter policy.

    Subclasses live inside their backend package (``repro.flexray``,
    ``repro.ttethernet``) and are the only sanctioned way for core code
    to obtain backend-specific parameter sets.
    """

    #: Registry key and geometry ``protocol`` tag; must match the
    #: backend geometry class's ``protocol`` ClassVar.
    name: ClassVar[str] = "generic"

    # -- geometry factories -------------------------------------------

    @abc.abstractmethod
    def geometry_template(self) -> SegmentGeometry:
        """A minimal valid geometry of this backend's subclass.

        Parameter-derivation code (:func:`repro.packing.frame_packing.
        derive_params_for`) uses it with :func:`dataclasses.replace` so
        derived parameter sets keep the backend's type, bit rate and
        frame-overhead model.
        """

    @abc.abstractmethod
    def dynamic_preset(self, minislots: int = 100) -> SegmentGeometry:
        """The dynamic-study configuration (paper Figs. 3-5 analogue)."""

    @abc.abstractmethod
    def static_preset(self, static_slots: int = 80) -> SegmentGeometry:
        """The static-study configuration (paper Figs. 1-2 analogue)."""

    @abc.abstractmethod
    def scenario_geometry(
        self,
        *,
        static_slots: int,
        minislots: int,
        p_latest_tx_minislot: int = 0,
        channel_count: int = 2,
    ) -> SegmentGeometry:
        """Geometry for one seeded fuzz scenario.

        The workload generator draws the *counts* from its RNG (in a
        fixed order, backend-independent, so one seed names the same
        abstract scenario everywhere) and the backend supplies the
        per-protocol window/quantum lengths.
        """

    # -- derived parameter policy -------------------------------------

    def case_study_params(self, workload: str,
                          minislots: int = 50) -> SegmentGeometry:
        """Derived cluster parameters for a case-study workload.

        Args:
            workload: ``"bbw"`` or ``"acc"``.
            minislots: Dynamic-segment length.
        """
        from repro.packing.frame_packing import derive_params_for
        from repro.workloads.acc import acc_signals
        from repro.workloads.bbw import bbw_signals

        if workload == "bbw":
            # BBW nearly fills a 4 ms cycle; the smaller headroom still
            # leaves idle slots without overflowing the cycle.
            return derive_params_for(
                bbw_signals(), cycle_ms=4.0, minislots=minislots,
                slot_headroom=1.1, template=self.geometry_template(),
            )
        if workload == "acc":
            # The larger headroom provisions the slack a SIL-grade
            # reliability goal's redundancy copies ride in.
            return derive_params_for(
                acc_signals(), cycle_ms=4.0, minislots=minislots,
                slot_headroom=1.6, template=self.geometry_template(),
            )
        raise ValueError(f"unknown case study {workload!r}")

    def workload_params(self, workload: str,
                        minislots: Optional[int] = None) -> SegmentGeometry:
        """The cluster a bundled workload runs on.

        Args:
            workload: A case study (``"bbw"``/``"acc"``) gets its
                derived cluster; any other workload the dynamic-study
                preset.
            minislots: Dynamic-segment length (default: per
                :func:`workload_minislots`).
        """
        minislots = workload_minislots(workload, minislots)
        if workload in CASE_STUDIES:
            return self.case_study_params(workload, minislots=minislots)
        return self.dynamic_preset(minislots)


#: name -> "module.path:ClassName"; resolved lazily so core modules can
#: import this registry without importing any backend package.
_BACKEND_PATHS: Dict[str, str] = {
    "flexray": "repro.flexray.backend:FlexRayBackend",
    "ttethernet": "repro.ttethernet.backend:TTEthernetBackend",
}

_INSTANCES: Dict[str, ProtocolBackend] = {}


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKEND_PATHS))


def get_backend(name: "str | ProtocolBackend") -> ProtocolBackend:
    """Resolve a backend by name (instances are cached).

    An already-resolved :class:`ProtocolBackend` passes through
    unchanged, so call sites can accept either form.

    Raises:
        ValueError: For an unregistered name.
    """
    if isinstance(name, ProtocolBackend):
        return name
    if name not in _BACKEND_PATHS:
        raise ValueError(
            f"unknown backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    if name not in _INSTANCES:
        module_path, _, class_name = _BACKEND_PATHS[name].partition(":")
        module = importlib.import_module(module_path)
        backend = getattr(module, class_name)()
        if not isinstance(backend, ProtocolBackend):
            raise TypeError(f"{_BACKEND_PATHS[name]} is not a ProtocolBackend")
        if backend.name != name:
            raise ValueError(
                f"backend {_BACKEND_PATHS[name]} declares name "
                f"{backend.name!r} but is registered as {name!r}"
            )
        _INSTANCES[name] = backend
    return _INSTANCES[name]

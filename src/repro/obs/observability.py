"""The observability facade: registry + hook bus + profiler in one handle.

Every instrumented component takes one of these (or the shared
:data:`NULL_OBS` no-op).  The contract that keeps instrumentation free
when unused:

- ``NULL_OBS.enabled`` is ``False`` and every method is a no-op, so a
  guarded call site (``if obs.enabled: ...``) costs one attribute read;
- an enabled :class:`Observability` records counters/gauges (pure
  simulation state, deterministic across replays), profiler sections
  (wall clock, excluded from determinism checks) and emits hook events;
- hook subscribers are observation-only; attaching them must never
  change counters or the simulated event sequence (property-tested).
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Union

from repro.obs.hooks import HookBus
from repro.obs.profile import Profiler
from repro.obs.registry import MetricsRegistry

__all__ = ["Observability", "NullObservability", "NULL_OBS", "ObsLike"]


class Observability:
    """Live observability context (see module docstring)."""

    enabled = True

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.hooks = HookBus()
        self.profiler = Profiler()

    # -- metrics -------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment a counter."""
        self.registry.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge (max is tracked automatically)."""
        self.registry.set_gauge(name, value)

    def merge_counters(self, prefix: str,
                       values: Mapping[str, float]) -> None:
        """Bulk-import a plain counter dict (see the registry)."""
        self.registry.merge_counters(prefix, values)

    # -- hooks ---------------------------------------------------------

    def emit(self, event: str, **fields: object) -> None:
        """Emit a structured hook event."""
        self.hooks.emit(event, fields)

    # -- profiling -----------------------------------------------------

    def section(self, name: str):
        """Profile a ``with`` block under ``name``."""
        return self.profiler.section(name)

    def now_ns(self) -> int:
        """Wall-clock nanoseconds (indirection point for tests)."""
        return time.perf_counter_ns()

    # -- isolation -----------------------------------------------------

    def child(self) -> "Observability":
        """A fresh, isolated context for one sub-run (e.g. one seed).

        The child shares nothing with its parent; capture it into an
        :class:`~repro.obs.snapshot.ObsSnapshot` when the sub-run ends
        and ``apply_to`` the parent to fold the totals back in.
        """
        return Observability()

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Registry snapshot plus profiler sections."""
        data = self.registry.snapshot()
        data["profile"] = self.profiler.snapshot()
        return data

    def deterministic_snapshot(self) -> Dict[str, Dict]:
        """The replay-comparable subset (counters and gauges only)."""
        return self.registry.snapshot()


class _NullSection:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SECTION = _NullSection()


class NullObservability:
    """The disabled observability context: every operation is a no-op.

    A single shared instance (:data:`NULL_OBS`) is the default for all
    instrumented components; hot paths check ``obs.enabled`` and skip
    instrumentation entirely.
    """

    enabled = False

    def inc(self, name: str, amount: int = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def merge_counters(self, prefix: str,
                       values: Mapping[str, float]) -> None:
        return None

    def emit(self, event: str, **fields: object) -> None:
        return None

    def child(self) -> "NullObservability":
        """Disabled contexts have disabled children."""
        return self

    def section(self, name: str) -> _NullSection:
        return _NULL_SECTION

    def now_ns(self) -> int:
        return 0

    def snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}, "profile": {}}

    def deterministic_snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}}


#: Shared no-op context -- the default everywhere.
NULL_OBS = NullObservability()

#: What instrumented components accept: a live context or the no-op.
ObsLike = Union[Observability, NullObservability]

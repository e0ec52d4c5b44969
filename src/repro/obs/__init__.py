"""Observability: counters, gauges, profiler, hook events, JSONL export.

The subsystem has four layers, assembled by the
:class:`~repro.obs.observability.Observability` facade:

- :mod:`repro.obs.registry` -- metric primitives and the registry;
- :mod:`repro.obs.hooks` -- the structured event-hook bus;
- :mod:`repro.obs.profile` -- the wall-clock section profiler;
- :mod:`repro.obs.export` -- the JSONL snapshot exporter;
- :mod:`repro.obs.snapshot` -- mergeable, picklable per-run snapshots
  (how campaigns isolate per-seed contexts and fold them back together).

Instrumented components default to :data:`~repro.obs.NULL_OBS`, the
shared no-op context, and guard hot-path instrumentation behind
``obs.enabled`` so disabled observability costs one attribute read.
See ``docs/observability.md`` for the hook API and counter catalogue.
"""

from repro.obs.export import (
    SCHEMA_VERSION,
    attach_event_capture,
    read_metrics_jsonl,
    snapshot_records,
    write_metrics_jsonl,
)
from repro.obs.hooks import HookBus, HookRecorder
from repro.obs.observability import (
    NULL_OBS,
    NullObservability,
    ObsLike,
    Observability,
)
from repro.obs.profile import Profiler, format_profile
from repro.obs.registry import (
    CounterMetric,
    GaugeMetric,
    MetricsRegistry,
)
from repro.obs.snapshot import ObsSnapshot

__all__ = [
    "SCHEMA_VERSION",
    "attach_event_capture",
    "read_metrics_jsonl",
    "snapshot_records",
    "write_metrics_jsonl",
    "HookBus",
    "HookRecorder",
    "NULL_OBS",
    "NullObservability",
    "ObsLike",
    "ObsSnapshot",
    "Observability",
    "Profiler",
    "format_profile",
    "CounterMetric",
    "GaugeMetric",
    "MetricsRegistry",
]

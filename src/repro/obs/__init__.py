"""Observability: counters, gauges, profiler, hook events, JSONL export.

The subsystem has four layers, assembled by the
:class:`~repro.obs.observability.Observability` facade:

- :mod:`repro.obs.registry` -- metric primitives and the registry;
- :mod:`repro.obs.hooks` -- the structured event-hook bus;
- :mod:`repro.obs.profile` -- the wall-clock section profiler;
- :mod:`repro.obs.export` -- the JSONL snapshot exporter;
- :mod:`repro.obs.snapshot` -- mergeable, picklable per-run snapshots
  (how campaigns isolate per-seed contexts and fold them back together).

Instrumented components default to
:data:`~repro.obs.observability.NULL_OBS`, the shared no-op context,
and guard hot-path instrumentation behind ``obs.enabled`` so disabled
observability costs one attribute read.
See ``docs/observability.md`` for the hook API and counter catalogue.
"""

"""Persistent results subsystem: canonical JSON, SQLite store, web API.

Three layers, bottom up:

- :mod:`repro.results.canonical` -- the one byte serialization every
  persisted artifact and every HTTP response uses (content addressing,
  byte-stable ETags, loud failures instead of silent ``str()``);
- :mod:`repro.results.store` --
  :class:`~repro.results.store.ResultStore`, the WAL-mode SQLite
  database campaigns, runs, trace digests, verify reports and obs
  snapshots (the admission service's drain counters among them) are
  ingested into atomically and idempotently;
- :mod:`repro.results.web` -- ``repro web``, the read-only paginated
  HTTP explorer over a store.
"""

"""JSONL export of observability snapshots.

One record per line, every record a flat JSON object with a ``record``
discriminator.  Schema (version 1):

- ``{"record": "meta", "schema": 1, ...}`` -- exactly one, first line;
  free-form context fields (command, scheduler, seed ...).
- ``{"record": "counter", "name": str, "value": int}``
- ``{"record": "gauge", "name": str, "value": float, "max": float}``
- ``{"record": "profile", "section": str, "count": int,
  "total_ns": int}`` -- wall clock; excluded from determinism checks.
- ``{"record": "event", "event": str, ...fields}`` -- optional captured
  hook events (bounded; see :func:`attach_event_capture`).

Counters/gauges sort by name, so two exports of the same deterministic
run diff clean.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import Dict, List, Mapping, Optional

from repro.obs.hooks import HookRecorder
from repro.obs.observability import Observability

__all__ = ["SCHEMA_VERSION", "attach_event_capture",
           "write_metrics_jsonl", "read_metrics_jsonl",
           "snapshot_records"]

#: Current JSONL schema version (the ``meta`` record carries it).
SCHEMA_VERSION = 1

#: Default cap on captured hook events per export -- structured events
#: are a debugging aid, not a trace format; the TraceRecorder owns the
#: full transmission history.
DEFAULT_EVENT_LIMIT = 10_000


def attach_event_capture(obs: Observability,
                         limit: int = DEFAULT_EVENT_LIMIT) -> HookRecorder:
    """Subscribe a bounded recorder to every hook event of ``obs``.

    Returns the recorder; pass it to :func:`write_metrics_jsonl` as
    ``events`` to include the captured events in the export.
    """
    recorder = HookRecorder(limit=limit)
    obs.hooks.subscribe_all(recorder)
    return recorder


def snapshot_records(obs: Observability,
                     meta: Optional[Mapping[str, object]] = None,
                     events: Optional[HookRecorder] = None) -> List[Dict]:
    """The export as a list of record dicts (the JSONL lines, parsed)."""
    records: List[Dict] = [dict({"record": "meta", "schema": SCHEMA_VERSION},
                                **(meta or {}))]
    snapshot = obs.snapshot()
    for name, value in snapshot.get("counters", {}).items():
        records.append({"record": "counter", "name": name, "value": value})
    for name, gauge in snapshot.get("gauges", {}).items():
        records.append({"record": "gauge", "name": name,
                        "value": gauge["value"], "max": gauge["max"]})
    for section, data in snapshot.get("profile", {}).items():
        records.append({"record": "profile", "section": section,
                        "count": data["count"],
                        "total_ns": data["total_ns"]})
    if events is not None:
        for event, fields in events.events:
            record = {"record": "event", "event": event}
            record.update(fields)
            records.append(record)
    return records


def write_metrics_jsonl(path: str, obs: Observability,
                        meta: Optional[Mapping[str, object]] = None,
                        events: Optional[HookRecorder] = None) -> int:
    """Write the snapshot of ``obs`` to ``path`` as JSONL, atomically.

    The export is serialized in full to a temp file in the destination
    directory and moved into place with ``os.replace`` (the same
    discipline as ``CampaignCache.store``): a crash -- including
    ``kill -9`` -- mid-export leaves either the previous complete file
    or no file, never a torn one.

    Records are serialized through the strict canonical encoder
    (:mod:`repro.results.canonical`): a value with no JSON
    representation raises :class:`~repro.results.canonical.
    CanonicalEncodeError` instead of silently degrading to ``str()``,
    and the two legal coercions (numpy scalar unwrap, NaN/Inf
    normalization) are counted on ``obs`` as
    ``obs.export.coerced_values``.

    Args:
        path: Output file (replaced atomically).
        obs: The observability context to export.
        meta: Extra fields for the leading ``meta`` record.
        events: Captured hook events to append (see
            :func:`attach_event_capture`).

    Returns:
        The number of records written.

    Raises:
        repro.results.canonical.CanonicalEncodeError: A record holds a
            value (e.g. an arbitrary object in an event field) that the
            export refuses to stringify silently.
    """
    # Function-level import: repro.obs must stay importable before
    # repro.results (whose store module imports repro.obs in turn).
    from repro.results.canonical import canonical_json_bytes

    coerced = 0

    def on_coerce(_path: str, _detail: str) -> None:
        nonlocal coerced
        coerced += 1

    records = snapshot_records(obs, meta=meta, events=events)
    # Serialize everything *before* touching the filesystem: an encode
    # error must not leave a half-written temp file either.
    lines = [canonical_json_bytes(record, on_coerce) + b"\n"
             for record in records]
    directory = os.path.dirname(os.path.abspath(path))
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            for line in lines:
                handle.write(line)
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    if coerced and obs.enabled:
        obs.inc("obs.export.coerced_values", coerced)
    return len(records)


def read_metrics_jsonl(path: str) -> List[Dict]:
    """Parse a metrics JSONL file back into record dicts.

    A malformed *final* line is treated as a truncated trailing write
    (the signature a crashed legacy in-place writer leaves): it is
    skipped with a :class:`RuntimeWarning` instead of raising, so the
    intact prefix of the export stays readable.  Malformed JSON on any
    earlier line is still a hard error -- that is corruption, not
    truncation.

    Raises:
        ValueError: On an empty file, a missing/invalid meta record, a
            record without a ``record`` discriminator, or malformed JSON
            before the final line -- the validation the regression
            tests lean on.
    """
    with open(path) as handle:
        lines = handle.read().split("\n")
    numbered = [(line_no, line.strip())
                for line_no, line in enumerate(lines, start=1)
                if line.strip()]
    records: List[Dict] = []
    for position, (line_no, line) in enumerate(numbered):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            if position == len(numbered) - 1:
                warnings.warn(
                    f"{path}:{line_no}: skipping truncated trailing "
                    f"line ({error})", RuntimeWarning, stacklevel=2)
                break
            raise ValueError(
                f"{path}:{line_no}: invalid JSON: {error}"
            ) from error
        if not isinstance(record, dict) or "record" not in record:
            raise ValueError(
                f"{path}:{line_no}: missing 'record' discriminator"
            )
        records.append(record)
    if not records:
        raise ValueError(f"{path}: empty metrics file")
    head = records[0]
    if head.get("record") != "meta":
        raise ValueError(f"{path}: first record must be 'meta'")
    if head.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema {head.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return records

"""JSON-lines wire protocol of the admission service.

One request per line, one JSON object per request; one response line
per request.  Requests carry an ``op`` and an optional client-chosen
``id`` that the response echoes (pipelining clients correlate on it).

Operations:

``admit``
    Admission-test one hard aperiodic task:
    ``{"op": "admit", "id": "r1", "channel": "A", "arrival": 120,
    "execution": 3, "deadline": 500}`` (``deadline`` is relative,
    ticks; ``name`` defaults to the id).  Reply ``status`` is
    ``accepted`` / ``rejected`` / ``overload``.
``admit_batch``
    Admission-test many tasks in one line and read one reply:
    ``{"op": "admit_batch", "id": "b1", "requests":
    [{"channel": "A", "name": "r1", "arrival": 120, "execution": 3,
    "deadline": 500}, ...]}``.  The reply is ``{"status": "ok",
    "responses": [...]}`` where ``responses[i]`` is exactly the reply
    request ``i`` would have received as an individual ``admit``
    coalesced into the same batch pass.  Entries are error-isolated
    like request lines: an invalid entry gets a positional
    ``{"status": "error", ...}`` reply without poisoning its
    neighbours.  Each entry must carry an explicit ``name``; at most
    :data:`MAX_BATCH_REQUESTS` entries.
``release``
    Reclaim a previously admitted task's slack:
    ``{"op": "release", "channel": "A", "name": "r1"}`` ->
    ``released`` / ``not_found``.
``plan_retransmission``
    Run the Theorem-1 differentiated retransmission planner:
    ``{"op": "plan_retransmission", "rho": 0.9999, "messages":
    {"m1": {"failure_probability": 1e-3, "instances": 20.0}}}``.
``stats``
    Service and per-channel ledger counters.
``ping``
    Liveness probe.

A ``name`` or ``channel`` longer than :data:`MAX_NAME_LENGTH`
characters is a protocol error (an entry error inside ``admit_batch``),
so what the ledger keeps and every reply echoes stays bounded.

Malformed lines never kill the connection: the server answers
``{"status": "error", "reason": ...}`` and keeps reading (malformed-
request isolation).  :exc:`ProtocolError` is the single parse-failure
type; its message becomes the ``reason``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

__all__ = ["MAX_BATCH_REQUESTS", "MAX_LINE_BYTES", "MAX_NAME_LENGTH", "OPS",
           "ProtocolError", "Request", "encode_response", "parse_request"]

#: Upper bound on one request line; longer lines are a protocol error.
MAX_LINE_BYTES = 64 * 1024

#: Upper bound on entries in one ``admit_batch`` request.
MAX_BATCH_REQUESTS = 512

#: Upper bound, in characters, on a task ``name`` and a ``channel``.
#: The ledger keeps a live task's name until release or expiry, and
#: every reply about the task echoes both, so neither grows with what
#: a client sends.
MAX_NAME_LENGTH = 1024

#: Every operation the server understands.
OPS = ("admit", "admit_batch", "release", "plan_retransmission", "stats",
       "ping")


class ProtocolError(ValueError):
    """A request line that cannot be turned into a valid request."""


@dataclass(frozen=True)
class Request:
    """One parsed request."""

    op: str
    id: Optional[str]
    fields: Dict[str, object] = field(default_factory=dict)


def _require_int(payload: Mapping[str, object], key: str,
                 minimum: int) -> int:
    value = payload.get(key)
    # bool is an int subclass; reject it explicitly.
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"{key!r} must be an integer")
    if value < minimum:
        raise ProtocolError(f"{key!r} must be >= {minimum}, got {value}")
    return value


def _require_str(payload: Mapping[str, object], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"{key!r} must be a non-empty string")
    return _bounded(value, key)


def _bounded(value: str, key: str) -> str:
    if len(value) > MAX_NAME_LENGTH:
        raise ProtocolError(
            f"{key!r} exceeds {MAX_NAME_LENGTH} characters")
    return value


def _number(value: object, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"{what} must be a number")
    return float(value)


def parse_request(line: str) -> Request:
    """Parse one request line into a validated :class:`Request`.

    Raises:
        ProtocolError: On any malformed input -- not JSON, not an
            object, unknown/missing op, bad field types or ranges.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"request line exceeds {MAX_LINE_BYTES} bytes")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"invalid JSON: {error.msg}") from error
    if not isinstance(payload, dict):
        raise ProtocolError("request must be a JSON object")

    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError("missing 'op'")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}")

    request_id = payload.get("id")
    if request_id is not None and not isinstance(request_id, str):
        raise ProtocolError("'id' must be a string when present")

    fields: Dict[str, object] = {}
    if op == "admit":
        fields["channel"] = _require_str(payload, "channel")
        fields["arrival"] = _require_int(payload, "arrival", 0)
        fields["execution"] = _require_int(payload, "execution", 1)
        fields["deadline"] = _require_int(payload, "deadline", 1)
        name = payload.get("name", request_id)
        if not isinstance(name, str) or not name:
            raise ProtocolError(
                "'name' (or a string 'id' to default from) is required")
        fields["name"] = _bounded(name, "name")
    elif op == "admit_batch":
        entries = payload.get("requests")
        if not isinstance(entries, list) or not entries:
            raise ProtocolError("'requests' must be a non-empty array")
        if len(entries) > MAX_BATCH_REQUESTS:
            raise ProtocolError(
                f"'requests' exceeds {MAX_BATCH_REQUESTS} entries")
        parsed_entries = []
        for entry in entries:
            # Entries are error-isolated, not batch-fatal: a bad entry
            # becomes a positional error reply, and its neighbours are
            # still admission-tested.
            if not isinstance(entry, dict):
                parsed_entries.append(
                    {"invalid": "entry must be an object"})
                continue
            try:
                parsed_entries.append({
                    "channel": _require_str(entry, "channel"),
                    "arrival": _require_int(entry, "arrival", 0),
                    "execution": _require_int(entry, "execution", 1),
                    "deadline": _require_int(entry, "deadline", 1),
                    "name": _require_str(entry, "name"),
                })
            except ProtocolError as error:
                parsed_entries.append({"invalid": str(error)})
        fields["requests"] = parsed_entries
    elif op == "release":
        fields["channel"] = _require_str(payload, "channel")
        fields["name"] = _require_str(payload, "name")
    elif op == "plan_retransmission":
        rho = _number(payload.get("rho"), "'rho'")
        if not 0.0 < rho <= 1.0:
            raise ProtocolError(f"'rho' must be in (0, 1], got {rho}")
        messages = payload.get("messages")
        if not isinstance(messages, dict) or not messages:
            raise ProtocolError("'messages' must be a non-empty object")
        parsed: Dict[str, Dict[str, float]] = {}
        for name, spec in messages.items():
            if not isinstance(spec, dict):
                raise ProtocolError(f"message {name!r} spec must be "
                                    f"an object")
            probability = _number(spec.get("failure_probability"),
                                  f"{name!r} failure_probability")
            if not 0.0 <= probability < 1.0:
                raise ProtocolError(
                    f"{name!r} failure_probability must be in [0, 1)")
            instances = _number(spec.get("instances"),
                                f"{name!r} instances")
            if instances <= 0:
                raise ProtocolError(f"{name!r} instances must be positive")
            entry = {"failure_probability": probability,
                     "instances": instances}
            if "cost" in spec:
                entry["cost"] = _number(spec["cost"], f"{name!r} cost")
            parsed[str(name)] = entry
        fields["rho"] = rho
        fields["messages"] = parsed
    # stats / ping carry no fields.
    return Request(op=op, id=request_id, fields=fields)


def encode_response(response: Mapping[str, object]) -> bytes:
    """Serialize one response as a newline-terminated JSON line."""
    return (json.dumps(response, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")
